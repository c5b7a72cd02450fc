package core

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/octant"
)

// Exchange tags used by the collective forest algorithms (SparseExchange
// payloads travel on the given tag; tag+1 stays reserved). The constants
// are exported so experiments and benchmarks can attribute per-tag
// communication volume (mpi.Stats.ByTag) to the owning phase.
const (
	TagPartition = 100
	TagBalance   = 110
	TagGhost     = 120
	TagNodesReq  = 130
	TagNodesRep  = 140
)

// Partition redistributes the leaves so every rank holds an equal share
// (±1) of the space-filling curve, as in Figure 2 of the paper. The new
// owners are determined from one Allgather of a long integer per rank; the
// octants themselves move point-to-point. It returns the number of local
// leaves shipped to other ranks (the paper quotes this churn for the
// advection runs: "over 99% of the elements" move per adaptation step).
func (f *Forest) Partition() int64 {
	n := f.globalNum
	if n == 0 {
		return 0
	}
	p := int64(f.Comm.Size())
	return f.partitionByDest(func(i int) int {
		gi := f.globalFirst + int64(i)
		// Rank r owns global indices [r*n/p, (r+1)*n/p).
		r := gi * p / n
		for r+1 < p && (r+1)*n/p <= gi {
			r++
		}
		for r > 0 && r*n/p > gi {
			r--
		}
		return int(r)
	})
}

// PartitionWeighted redistributes the leaves so every rank receives an
// approximately equal share of the given per-leaf work weights (all
// weights must be positive). This is the paper's optional weighted variant
// of Partition.
func (f *Forest) PartitionWeighted(weights []float64) int64 {
	if len(weights) != len(f.Local) {
		panic("core: PartitionWeighted needs one weight per local leaf")
	}
	var localSum float64
	for _, w := range weights {
		if w <= 0 {
			panic("core: weights must be positive")
		}
		localSum += w
	}
	offset := mpi.ExScan(f.Comm, localSum, func(a, b float64) float64 { return a + b })
	total := mpi.AllreduceSumFloat(f.Comm, localSum)
	p := float64(f.Comm.Size())
	prefix := offset
	dests := make([]int, len(f.Local))
	for i, w := range weights {
		mid := prefix + w/2
		r := int(mid / total * p)
		if r >= f.Comm.Size() {
			r = f.Comm.Size() - 1
		}
		dests[i] = r
		prefix += w
	}
	return f.partitionByDest(func(i int) int { return dests[i] })
}

// PartitionWithData is Partition that additionally ships perLeaf float64
// payload values along with each leaf (e.g. the dG solution coefficients
// during the paper's dynamic-AMR advection runs), returning the
// redistributed payload and the number of leaves shipped.
func (f *Forest) PartitionWithData(perLeaf int, data []float64) ([]float64, int64) {
	if len(data) != perLeaf*len(f.Local) {
		panic("core: PartitionWithData payload length mismatch")
	}
	n := f.globalNum
	if n == 0 {
		return data, 0
	}
	p := int64(f.Comm.Size())
	f.pendingData, f.pendingPer = data, perLeaf
	sent := f.partitionByDest(func(i int) int {
		gi := f.globalFirst + int64(i)
		r := gi * p / n
		for r+1 < p && (r+1)*n/p <= gi {
			r++
		}
		for r > 0 && r*n/p > gi {
			r--
		}
		return int(r)
	})
	out := f.pendingData
	f.pendingData, f.pendingPer = nil, 0
	return out, sent
}

// partitionByDest ships each local leaf to dest(i) (which must be
// non-decreasing in i to preserve curve contiguity) and refreshes the
// shared meta-data. If pendingData is set, the payload travels with the
// leaves. The run a rank keeps is not put in a parcel: the merge copies it
// straight from the old arrays into the new ones, which are sized to what
// arrives before anything is copied.
func (f *Forest) partitionByDest(dest func(i int) int) int64 {
	defer f.span("partition").End()
	if f.adapted {
		f.balanced, f.changed = false, f.changed[:0]
	}
	type parcel struct {
		Leaves []octant.Octant
		Data   []float64
	}
	per, me := f.pendingPer, f.Comm.Rank()
	out := make(map[int]parcel)
	var own parcel
	var sent int64
	for i := 0; i < len(f.Local); {
		r := dest(i)
		j := i
		for j < len(f.Local) && dest(j) == r {
			j++
		}
		if r == me {
			own.Leaves = f.Local[i:j]
			if f.pendingData != nil {
				own.Data = f.pendingData[i*per : j*per]
			}
			i = j
			continue
		}
		pc := out[r]
		pc.Leaves = append(pc.Leaves, f.Local[i:j]...)
		if f.pendingData != nil {
			pc.Data = append(pc.Data, f.pendingData[i*per:j*per]...)
		}
		out[r] = pc
		sent += int64(j - i)
		i = j
	}
	in := mpi.SparseExchange(f.Comm, out, TagPartition)
	in[me] = own
	srcs := make([]int, 0, len(in))
	nLeaves, nData := 0, 0
	for s, pc := range in {
		srcs = append(srcs, s)
		nLeaves += len(pc.Leaves)
		nData += len(pc.Data)
	}
	sort.Ints(srcs)
	merged := make([]octant.Octant, 0, nLeaves)
	var mergedData []float64
	if f.pendingData != nil {
		mergedData = make([]float64, 0, nData)
	}
	for _, s := range srcs {
		merged = append(merged, in[s].Leaves...)
		mergedData = append(mergedData, in[s].Data...)
	}
	f.Local = merged
	if f.pendingData != nil {
		f.pendingData = mergedData
	}
	f.syncMeta()
	return sent
}
