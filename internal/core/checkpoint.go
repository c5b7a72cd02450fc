package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// Checkpointing mirrors p4est's save/load capability: the leaf structure
// is written once (gathered through rank 0) and can be restored later on
// any rank count — the curve is simply re-split into equal segments. The
// connectivity is not serialized; as in p4est, the caller must reconstruct
// the same macro-structure and pass it to Load.

const checkpointMagic = uint64(0x70346573745f676f) // "p4est_go"

// leafRecBytes is the wire size of one leaf record (5 little-endian
// int32: tree, x, y, z, level); the header is 3 uint64.
const (
	leafRecBytes     = 20
	checkpointHeader = 24
)

// Save writes the forest's leaves to path. Collective; rank 0 writes the
// file, and its I/O outcome is broadcast so every rank returns the same
// error. Flush and close failures (e.g. a full disk, which would silently
// truncate the checkpoint) are propagated, and a partial file is removed
// rather than left behind looking like a checkpoint.
func (f *Forest) Save(path string) error {
	// Gather through rank 0 only: the writer briefly holds the O(global N)
	// leaf array, every other rank stays at its local footprint. (An
	// Allgather would replicate the array on all P ranks, defeating the
	// low-memory design.)
	parts := mpi.Gather(f.Comm, 0, f.Local)
	var err error
	if f.Comm.Rank() == 0 {
		var all []octant.Octant
		for _, part := range parts {
			all = append(all, part...)
		}
		err = writeSynced(path, "checkpoint", func(w *bufio.Writer) error {
			return writeLeaves(w, f.Conn.NumTrees(), all)
		})
	}
	return mpi.BcastErr(f.Comm, err)
}

// writeSynced creates path, streams write through a buffer and forces the
// bytes to stable storage before closing. Any failure is returned and the
// partial file removed (best effort) rather than left behind looking like
// a checkpoint.
func writeSynced(path, what string, write func(w *bufio.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	err = write(w)
	if ferr := w.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("core: flushing %s %s: %w", what, path, ferr)
	}
	if serr := fileSync(file); err == nil && serr != nil {
		err = fmt.Errorf("core: syncing %s %s: %w", what, path, serr)
	}
	if cerr := file.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: closing %s %s: %w", what, path, cerr)
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// fileSync forces a written checkpoint to stable storage before it is
// closed and renamed into place: without the fsync, a crash after the
// rename can leave a checkpoint whose name says "complete" but whose
// blocks never hit the disk — the exact corruption the atomic-rename
// protocol exists to rule out. A variable so tests can inject sync
// failures and pin that they propagate.
var fileSync = func(f *os.File) error { return f.Sync() }

// tmpSeq makes tempPath names unique within the process.
var tmpSeq atomic.Uint64

// tempPath returns a collision-free temporary sibling of path for the
// write-then-rename protocol: the name is unique per process (pid) and
// per call (sequence), so two checkpoint writers sharing a base path —
// concurrent jobs in a server process, or a job racing its own
// auto-restarted successor — can never open or rename each other's
// half-written temp files. The final rename target stays `path`.
func tempPath(path string) string {
	return fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
}

// syncDir fsyncs a directory, making a just-renamed checkpoint's
// directory entry durable. Failures are reported, not fatal: some
// filesystems refuse directory fsync, and the rename itself succeeded.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func writeLeaves(w io.Writer, numTrees int32, all []octant.Octant) error {
	head := []uint64{checkpointMagic, uint64(numTrees), uint64(len(all))}
	for _, v := range head {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, o := range all {
		rec := [5]int32{o.Tree, o.X, o.Y, o.Z, int32(o.Level)}
		if err := binary.Write(w, binary.LittleEndian, rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// Load restores a forest saved by Save onto the given communicator (any
// size) and connectivity (which must match the one used at save time).
// Collective; every rank reads its own slice of the file. The payload is
// validated against the header before any leaf is trusted: the file size
// must match the declared record count exactly (no truncation, no
// trailing garbage), the tree count must be positive and match the
// connectivity, and every record's level and tree id must be in range.
//
// Corruption is usually confined to one rank's slice, so the ranks agree
// on the outcome (mpi.AgreeErr) before each collective: a rank that
// rejected its slice must not return while its peers block in syncMeta.
func Load(comm *mpi.Comm, conn *connectivity.Conn, path string) (*Forest, error) {
	local, err := readLeafSlice(comm, conn, path)
	if err = mpi.AgreeErr(comm, err); err != nil {
		return nil, err
	}
	f := &Forest{Conn: conn, Comm: comm, Local: local}
	f.syncMeta()
	err = mpi.AgreeErr(comm, f.validateLocal())
	if err == nil {
		err = f.validateGlobal()
	}
	if err != nil {
		return nil, fmt.Errorf("core: loaded forest invalid: %w", err)
	}
	return f, nil
}

// readLeafSlice is the rank-local half of Load: header and size checks,
// then this rank's equal share of the records. No communication.
func readLeafSlice(comm *mpi.Comm, conn *connectivity.Conn, path string) ([]octant.Octant, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	r := bufio.NewReader(file)

	var head [3]uint64
	if err := binary.Read(r, binary.LittleEndian, head[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	if head[0] != checkpointMagic {
		return nil, fmt.Errorf("core: %s is not a forest checkpoint", path)
	}
	if head[1] == 0 || head[1] > math.MaxInt32 {
		return nil, fmt.Errorf("core: checkpoint tree count %d out of range", head[1])
	}
	if int32(head[1]) != conn.NumTrees() {
		return nil, fmt.Errorf("core: checkpoint has %d trees, connectivity has %d", head[1], conn.NumTrees())
	}
	if head[2] == 0 || head[2] > math.MaxInt64/leafRecBytes {
		return nil, fmt.Errorf("core: checkpoint leaf count %d out of range", head[2])
	}
	total := int64(head[2])
	fi, err := file.Stat()
	if err != nil {
		return nil, err
	}
	if want := int64(checkpointHeader) + total*leafRecBytes; fi.Size() != want {
		return nil, fmt.Errorf("core: checkpoint %s is %d bytes, want %d for %d leaves (truncated or trailing garbage)",
			path, fi.Size(), want, total)
	}

	p := int64(comm.Size())
	rank := int64(comm.Rank())
	lo := rank * total / p
	hi := (rank + 1) * total / p

	// Skip to this rank's slice.
	if _, err := io.CopyN(io.Discard, r, lo*leafRecBytes); err != nil {
		return nil, err
	}
	local := make([]octant.Octant, 0, hi-lo)
	var prev octant.Octant
	for i := lo; i < hi; i++ {
		var rec [5]int32
		if err := binary.Read(r, binary.LittleEndian, rec[:]); err != nil {
			return nil, fmt.Errorf("core: reading leaf %d: %w", i, err)
		}
		if rec[4] < 0 || rec[4] > octant.MaxLevel {
			return nil, fmt.Errorf("core: leaf %d has level %d out of range [0, %d]", i, rec[4], octant.MaxLevel)
		}
		o := octant.Octant{Tree: rec[0], X: rec[1], Y: rec[2], Z: rec[3], Level: int8(rec[4])}
		if !o.Valid() || o.Tree < 0 || o.Tree >= conn.NumTrees() {
			return nil, fmt.Errorf("core: corrupt leaf %d: %v", i, o)
		}
		if i > lo && octant.Compare(prev, o) >= 0 {
			return nil, fmt.Errorf("core: checkpoint leaves out of order at %d", i)
		}
		prev = o
		local = append(local, o)
	}
	return local, nil
}
