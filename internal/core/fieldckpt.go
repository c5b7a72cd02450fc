package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/connectivity"
	"repro/internal/mpi"
)

// Field checkpointing complements Save/Load: the forest checkpoint
// restores the mesh, the field checkpoint restores the solver state
// living on it. The format is versioned and rank-count independent —
// values are stored in global curve order, so a restart may use any
// number of ranks; each rank reads exactly its own partition's slice.
//
// Layout (little-endian):
//
//	uint64 magic   "p4go_fld"
//	uint64 version (currently 1)
//	uint64 valsPerElem
//	uint64 totalElems
//	uint64 step    (solver step counter at save time)
//	float64 time   (solver simulation time at save time)
//	float64 x totalElems*valsPerElem   field values, global curve order

const (
	fieldMagic   = uint64(0x7034676f5f666c64) // "p4go_fld"
	fieldVersion = uint64(1)
	fieldHeader  = 48
)

// FieldMeta is the solver state carried alongside the field values.
type FieldMeta struct {
	Step int64
	Time float64
}

// SaveFields writes the field data attached to the forest's local leaves
// (valsPerElem float64 values per leaf, curve order) to path. Collective;
// the data is gathered through rank 0 in rank order — which is global
// curve order — and rank 0's I/O outcome is broadcast so every rank
// returns the same error.
func (f *Forest) SaveFields(path string, valsPerElem int, meta FieldMeta, data []float64) error {
	if len(data) != f.NumLocal()*valsPerElem {
		return fmt.Errorf("core: SaveFields: %d values for %d leaves x %d per leaf",
			len(data), f.NumLocal(), valsPerElem)
	}
	// Gather transfers payload ownership; hand it a copy so the caller's
	// live field array is never shared with another rank.
	parts := mpi.Gather(f.Comm, 0, append([]float64(nil), data...))
	var err error
	if f.Comm.Rank() == 0 {
		err = writeSynced(path, "field checkpoint", func(w *bufio.Writer) error {
			return writeFieldParts(w, valsPerElem, f.NumGlobal(), meta, parts)
		})
	}
	return mpi.BcastErr(f.Comm, err)
}

func writeFieldParts(w *bufio.Writer, valsPerElem int, totalElems int64, meta FieldMeta, parts [][]float64) error {
	head := []uint64{fieldMagic, fieldVersion, uint64(valsPerElem), uint64(totalElems), uint64(meta.Step)}
	for _, v := range head {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, meta.Time); err != nil {
		return err
	}
	for _, part := range parts {
		if err := binary.Write(w, binary.LittleEndian, part); err != nil {
			return err
		}
	}
	return nil
}

// LoadFields restores field data saved by SaveFields onto the forest's
// current partition (any rank count): each rank reads the contiguous
// slice matching its local leaves. The header is validated against the
// forest and the file size against the declared totals before any value
// is trusted.
func (f *Forest) LoadFields(path string, valsPerElem int) ([]float64, FieldMeta, error) {
	var meta FieldMeta
	file, err := os.Open(path)
	if err != nil {
		return nil, meta, err
	}
	defer file.Close()

	var head [5]uint64
	if err := binary.Read(file, binary.LittleEndian, head[:]); err != nil {
		return nil, meta, fmt.Errorf("core: reading field checkpoint header: %w", err)
	}
	if head[0] != fieldMagic {
		return nil, meta, fmt.Errorf("core: %s is not a field checkpoint", path)
	}
	if head[1] != fieldVersion {
		return nil, meta, fmt.Errorf("core: field checkpoint %s has version %d, want %d", path, head[1], fieldVersion)
	}
	if head[2] != uint64(valsPerElem) {
		return nil, meta, fmt.Errorf("core: field checkpoint has %d values per element, want %d", head[2], valsPerElem)
	}
	if head[3] > math.MaxInt64 || int64(head[3]) != f.NumGlobal() {
		return nil, meta, fmt.Errorf("core: field checkpoint has %d elements, forest has %d", head[3], f.NumGlobal())
	}
	meta.Step = int64(head[4])
	if err := binary.Read(file, binary.LittleEndian, &meta.Time); err != nil {
		return nil, meta, fmt.Errorf("core: reading field checkpoint time: %w", err)
	}
	fi, err := file.Stat()
	if err != nil {
		return nil, meta, err
	}
	total := int64(head[3])
	if want := int64(fieldHeader) + total*int64(valsPerElem)*8; fi.Size() != want {
		return nil, meta, fmt.Errorf("core: field checkpoint %s is %d bytes, want %d (truncated or trailing garbage)",
			path, fi.Size(), want)
	}

	off := int64(fieldHeader) + f.GlobalFirst()*int64(valsPerElem)*8
	if _, err := file.Seek(off, 0); err != nil {
		return nil, meta, err
	}
	data := make([]float64, f.NumLocal()*valsPerElem)
	if err := binary.Read(bufio.NewReader(file), binary.LittleEndian, data); err != nil {
		return nil, meta, fmt.Errorf("core: reading field values: %w", err)
	}
	return data, meta, nil
}

// A solver checkpoint is the pair base+".forest" (Save) and
// base+".fields" (SaveFields), written at a step boundary. Everything else
// a solver carries — mesh geometry, materials, velocities, dt — is a
// deterministic function of forest and options, and the runtime's
// collectives reduce in a fixed order, so a run resumed from the pair
// replays the remaining steps bitwise-identically to the uninterrupted
// one, on any rank count.

func checkpointPaths(base string) (forest, fields string) {
	return base + ".forest", base + ".fields"
}

// CheckpointExists reports whether both files of a checkpoint base are
// present (the restart loop's "is there anything to resume from" probe).
func CheckpointExists(base string) bool {
	fp, dp := checkpointPaths(base)
	if _, err := os.Stat(fp); err != nil {
		return false
	}
	_, err := os.Stat(dp)
	return err == nil
}

// SaveCheckpoint writes the forest and the field data on its leaves to
// the checkpoint pair of base. Collective; the files are written to
// per-call unique temporary names (tempPath) and renamed into place, so a
// crash mid-write never clobbers the previous good checkpoint and
// concurrent writers sharing a base path never clobber each other's temp
// files. All ranks return the same error.
func (f *Forest) SaveCheckpoint(base string, valsPerElem int, meta FieldMeta, data []float64) error {
	fp, dp := checkpointPaths(base)
	// Only rank 0 touches the filesystem (Save/SaveFields gather through
	// it), so only rank 0's temp names matter; each rank computing its own
	// is harmless.
	ftmp, dtmp := tempPath(fp), tempPath(dp)
	err := f.Save(ftmp)
	if err == nil {
		err = f.SaveFields(dtmp, valsPerElem, meta, data)
	}
	if f.Comm.Rank() == 0 {
		if err == nil {
			if err = os.Rename(ftmp, fp); err == nil {
				err = os.Rename(dtmp, dp)
			}
			if err == nil {
				// Make the renames durable; the file contents were fsynced at
				// write time, the directory entries are the remaining volatile
				// piece of the atomic-replace protocol.
				err = syncDir(filepath.Dir(fp))
			}
		}
		if err != nil {
			// Unique temp names accumulate if left behind; sweep this
			// writer's own on any failure (best effort).
			os.Remove(ftmp)
			os.Remove(dtmp)
		}
	}
	return mpi.BcastErr(f.Comm, err)
}

// LoadCheckpoint restores the pair written by SaveCheckpoint onto comm
// (any size): the forest on conn, which must match the one used at save
// time, and this rank's slice of the field data. Collective; a failure on
// any rank, in either file, is an error on every rank.
func LoadCheckpoint(comm *mpi.Comm, conn *connectivity.Conn, base string, valsPerElem int) (*Forest, []float64, FieldMeta, error) {
	fp, dp := checkpointPaths(base)
	f, err := Load(comm, conn, fp)
	if err != nil {
		return nil, nil, FieldMeta{}, err
	}
	data, meta, err := f.LoadFields(dp, valsPerElem)
	if err = mpi.AgreeErr(comm, err); err != nil {
		return nil, nil, FieldMeta{}, err
	}
	return f, data, meta, nil
}

// HashFields folds the global field state (gathered in rank order, which
// is curve order) and the simulation time into one FNV-1a hash, identical
// on every rank. Two runs whose hashes match hold bitwise-identical
// distributed solver state — the check the chaos and restart tests rely
// on. Collective.
func HashFields(c *mpi.Comm, simTime float64, data []float64) uint64 {
	parts := mpi.Gather(c, 0, append([]float64(nil), data...))
	var h uint64
	if c.Rank() == 0 {
		h = fnvOffset
		h = fnvMix(h, math.Float64bits(simTime))
		for _, part := range parts {
			for _, v := range part {
				h = fnvMix(h, math.Float64bits(v))
			}
		}
	}
	return mpi.Bcast(c, 0, h)
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
