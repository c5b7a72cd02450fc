package advect

import (
	"math"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mangll"
	"repro/internal/mpi"
)

// TestKernelRankCountIdentity pins rank-count invariance at the kernel: one
// application of the advection kernel gives every element bitwise the same
// residual for P in {1,2,3,5} x workers in {1,2}, on a mesh of the six
// rotated cubes adapted to a front that sits on cube 0's side of the face
// it shares with the rotated sixth cube, so hanging faces cross that face.
// The driver hands each element its volume term and then its links in
// ascending order whatever the partition.
func TestKernelRankCountIdentity(t *testing.T) {
	front := func(x, y, z float64) float64 {
		dx, dy, dz := x-1.9, y-0.8, z-1.0
		return math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * 0.3 * 0.3))
	}
	swirl := func(x, y, z float64) (float64, float64, float64) { return -y, x, 0.3 * math.Sin(x) }
	var want []uint64
	for _, p := range []int{1, 2, 3, 5} {
		for _, w := range []int{1, 2} {
			var got []uint64
			var rotatedHanging int64
			mpi.RunOpt(p, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
				s := NewCustom(c, connectivity.SixRotCubes(), smallOpts(), swirl, front)
				var n int64
				for _, l := range s.Mesh.Links {
					if l.Kind == mangll.LinkToFineQuad && (l.Swap || l.RevI || l.RevJ) {
						n++
					}
				}
				n = mpi.AllreduceSum(c, n)
				dc := make([]float64, len(s.C))
				s.RHS(s.C, dc)
				// One FNV-1a hash per element, gathered in curve order.
				local := make([]uint64, s.Mesh.NumLocal)
				for e := range local {
					h := uint64(14695981039346656037)
					for _, v := range dc[e*s.Mesh.Np : (e+1)*s.Mesh.Np] {
						h = (h ^ math.Float64bits(v)) * 1099511628211
					}
					local[e] = h
				}
				parts := mpi.Gather(c, 0, local)
				if c.Rank() == 0 {
					rotatedHanging = n
					for _, part := range parts {
						got = append(got, part...)
					}
				}
			})
			if rotatedHanging == 0 {
				t.Fatalf("p=%d: mesh has no hanging face across a rotated tree face", p)
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("p=%d w=%d: %d elements, want %d", p, w, len(got), len(want))
			}
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("p=%d w=%d: residual of global element %d differs from the 1-rank 1-worker run", p, w, e)
				}
			}
		}
	}
}
