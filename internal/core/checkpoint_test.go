package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/connectivity"
	"repro/internal/mpi"
)

func TestCheckpointRoundTripAcrossRankCounts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "forest.p4go")
	conn := connectivity.SixRotCubes()

	var savedSum uint64
	mpi.Run(3, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, 3, fractalRefine(3))
		f.Balance(BalanceFull)
		f.Partition()
		// Checksum is collective and rank-identical; assign from one rank
		// so the rank goroutines don't race on the shared variable.
		if s := f.Checksum(); c.Rank() == 0 {
			savedSum = s
		}
		if err := f.Save(path); err != nil {
			t.Errorf("save: %v", err)
		}
	})

	// Restore on a different rank count: same leaves, re-partitioned.
	for _, p := range []int{1, 5} {
		mpi.Run(p, func(c *mpi.Comm) {
			f, err := Load(c, conn, path)
			if err != nil {
				t.Errorf("load on %d ranks: %v", p, err)
				return
			}
			if f.Checksum() != savedSum {
				t.Errorf("p=%d: checksum changed across checkpoint", p)
			}
			validate(t, f)
			// Re-partitioned evenly.
			diff := int64(f.NumLocal()) - f.NumGlobal()/int64(p)
			if diff < 0 || diff > 1 {
				t.Errorf("p=%d: uneven restore: %d of %d", p, f.NumLocal(), f.NumGlobal())
			}
		})
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	conn := connectivity.UnitCube()

	// Wrong magic.
	bad := filepath.Join(dir, "bad.p4go")
	if err := os.WriteFile(bad, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	mpi.Run(1, func(c *mpi.Comm) {
		if _, err := Load(c, conn, bad); err == nil {
			t.Error("garbage accepted")
		}
	})

	// Wrong connectivity (tree count mismatch).
	good := filepath.Join(dir, "good.p4go")
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, connectivity.SixRotCubes(), 1)
		if err := f.Save(good); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	mpi.Run(1, func(c *mpi.Comm) {
		if _, err := Load(c, conn, good); err == nil {
			t.Error("tree-count mismatch accepted")
		}
	})

	// Missing file.
	mpi.Run(1, func(c *mpi.Comm) {
		if _, err := Load(c, conn, filepath.Join(dir, "nope")); err == nil {
			t.Error("missing file accepted")
		}
	})
}

// TestCheckpointRejectsCorruption is the payload-validation table: every
// flavor of truncation, trailing garbage, header lie, and bad record must
// be rejected by Load before any leaf is trusted.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	conn := connectivity.SixRotCubes()
	good := filepath.Join(dir, "good.p4go")
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, 2, fractalRefine(2))
		f.Balance(BalanceFull)
		f.Partition()
		if err := f.Save(good); err != nil {
			t.Fatalf("save: %v", err)
		}
	})
	orig, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	putU64 := func(b []byte, off int, v uint64) {
		binary.LittleEndian.PutUint64(b[off:], v)
	}
	putI32 := func(b []byte, off int, v int32) {
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
	}
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"truncated mid-header", func(b []byte) []byte { return b[:12] }},
		{"truncated mid-record", func(b []byte) []byte { return b[:len(b)-7] }},
		{"missing last record", func(b []byte) []byte { return b[:len(b)-leafRecBytes] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 1, 2, 3, 4) }},
		{"zero tree count", func(b []byte) []byte { putU64(b, 8, 0); return b }},
		{"huge tree count", func(b []byte) []byte { putU64(b, 8, 1<<40); return b }},
		{"zero leaf count", func(b []byte) []byte { putU64(b, 16, 0); return b }},
		{"overflowing leaf count", func(b []byte) []byte { putU64(b, 16, 1<<62); return b }},
		{"leaf count off by one", func(b []byte) []byte { putU64(b, 16, binary.LittleEndian.Uint64(b[16:])+1); return b }},
		{"level out of range", func(b []byte) []byte { putI32(b, checkpointHeader+16, 99); return b }},
		{"negative level", func(b []byte) []byte { putI32(b, checkpointHeader+16, -1); return b }},
		{"negative tree id", func(b []byte) []byte { putI32(b, checkpointHeader, -3); return b }},
		{"tree id past connectivity", func(b []byte) []byte { putI32(b, checkpointHeader, 1<<20); return b }},
		{"leaves out of order", func(b []byte) []byte {
			a := checkpointHeader
			z := len(b) - leafRecBytes
			tmp := make([]byte, leafRecBytes)
			copy(tmp, b[a:a+leafRecBytes])
			copy(b[a:], b[z:z+leafRecBytes])
			copy(b[z:], tmp)
			return b
		}},
	}
	for _, tc := range cases {
		bad := filepath.Join(dir, "bad.p4go")
		if err := os.WriteFile(bad, tc.corrupt(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		mpi.Run(1, func(c *mpi.Comm) {
			if _, err := Load(c, conn, bad); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		})
	}

	// The pristine bytes must still load (the table isn't vacuous).
	mpi.Run(1, func(c *mpi.Comm) {
		if _, err := Load(c, conn, good); err != nil {
			t.Errorf("pristine checkpoint rejected: %v", err)
		}
	})
}

// TestLoadCorruptSliceFailsEverywhere pins the error-agreement rule of the
// collective loader: corruption confined to the last rank's slice of the
// file — a record only that rank parses, or a gap only its local tiling
// check sees — must be an error on every rank. Before the fix the failing
// rank returned alone and its peers blocked in the next collective
// forever, hence the timeout.
func TestLoadCorruptSliceFailsEverywhere(t *testing.T) {
	dir := t.TempDir()
	conn := connectivity.UnitCube()
	good := filepath.Join(dir, "good.p4go")
	mpi.Run(2, func(c *mpi.Comm) {
		if err := New(c, conn, 2).Save(good); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	orig, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	level := func(rec int) int { return checkpointHeader + rec*leafRecBytes + 16 }
	cases := []struct {
		name string
		off  int
		val  uint32
	}{
		{"last record level 127", level(63), 127},
		{"gap before last record", level(62), 3},
	}
	for _, tc := range cases {
		bad := filepath.Join(dir, "bad.p4go")
		b := append([]byte(nil), orig...)
		binary.LittleEndian.PutUint32(b[tc.off:], tc.val)
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3} {
			errs := make([]error, p)
			done := make(chan struct{})
			go func() {
				defer close(done)
				mpi.Run(p, func(c *mpi.Comm) { _, errs[c.Rank()] = Load(c, conn, bad) })
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: Load on %d ranks hangs", tc.name, p)
			}
			for r, err := range errs {
				if err == nil {
					t.Errorf("%s: rank %d of %d accepted the checkpoint", tc.name, r, p)
				}
			}
		}
	}
}

// TestSavePropagatesWriteErrors pins the satellite bugfix: a Save whose
// flush fails (full disk) must return the error on every rank instead of
// silently leaving a truncated checkpoint, and a failing io.Writer must
// surface from the record writer.
func TestSavePropagatesWriteErrors(t *testing.T) {
	conn := connectivity.UnitCube()

	// Unwritable path: os.Create fails.
	mpi.Run(2, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		if err := f.Save(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
			t.Errorf("rank %d: save into missing directory succeeded", c.Rank())
		}
	})

	// Full disk: the checkpoint fits in bufio's buffer, so the ENOSPC only
	// surfaces at Flush — exactly the path the old code ignored. A symlink
	// keeps the cleanup os.Remove away from the device node itself.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	full := filepath.Join(t.TempDir(), "full")
	if err := os.Symlink("/dev/full", full); err != nil {
		t.Fatal(err)
	}
	mpi.Run(2, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		err := f.Save(full)
		if err == nil {
			t.Errorf("rank %d: save to full disk succeeded", c.Rank())
		}
	})

	// Direct write failure from the record writer.
	if err := writeLeaves(failingWriter{}, 1, nil); err == nil {
		t.Error("writeLeaves swallowed the writer's error")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errors.New("sink closed") }

// TestSavePropagatesSyncErrors pins the fsync half of the durability
// satellite: the written checkpoint is forced to stable storage before
// close/rename, and an fsync failure surfaces on every rank — with the
// partial file removed — for both the forest and the field writers.
func TestSavePropagatesSyncErrors(t *testing.T) {
	orig := fileSync
	fileSync = func(*os.File) error { return errors.New("sync: device lost") }
	defer func() { fileSync = orig }()

	conn := connectivity.UnitCube()
	base := t.TempDir()
	mpi.Run(2, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		fp := filepath.Join(base, "forest.ckpt")
		if err := f.Save(fp); err == nil || !strings.Contains(err.Error(), "sync") {
			t.Errorf("rank %d: forest save must propagate fsync failure, got %v", c.Rank(), err)
		}
		if _, serr := os.Stat(fp); serr == nil {
			t.Errorf("rank %d: unsynced forest checkpoint left behind", c.Rank())
		}
		dp := filepath.Join(base, "fields.ckpt")
		data := make([]float64, f.NumLocal()*3)
		if err := f.SaveFields(dp, 3, FieldMeta{}, data); err == nil || !strings.Contains(err.Error(), "sync") {
			t.Errorf("rank %d: field save must propagate fsync failure, got %v", c.Rank(), err)
		}
		if _, serr := os.Stat(dp); serr == nil {
			t.Errorf("rank %d: unsynced field checkpoint left behind", c.Rank())
		}
	})
}

// TestSyncDir pins the directory-durability helper: syncing a real
// directory succeeds, syncing a missing one reports the error.
func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Errorf("syncDir on a real directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("syncDir on a missing directory succeeded")
	}
}
