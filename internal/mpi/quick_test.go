package mpi

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickAllreduceMatchesSerial checks the collectives against their
// serial definitions on random inputs and world sizes.
func TestQuickAllreduceMatchesSerial(t *testing.T) {
	err := quick.Check(func(seed int64, sizeRaw uint8) bool {
		p := int(sizeRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = rng.Int63n(1000) - 500
		}
		var wantSum int64
		wantMax := vals[0]
		for _, v := range vals {
			wantSum += v
			if v > wantMax {
				wantMax = v
			}
		}
		ok := true
		Run(p, func(c *Comm) {
			if AllreduceSum(c, vals[c.Rank()]) != wantSum {
				ok = false
			}
			if int64(AllreduceMax(c, float64(vals[c.Rank()]))) != wantMax {
				ok = false
			}
			// ExScan prefix property.
			pre := ExScan(c, vals[c.Rank()], func(a, b int64) int64 { return a + b })
			var want int64
			for i := 0; i < c.Rank(); i++ {
				want += vals[i]
			}
			if pre != want {
				ok = false
			}
		})
		return ok
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlltoallTranspose checks that Alltoall is a transpose on random
// matrices.
func TestQuickAlltoallTranspose(t *testing.T) {
	err := quick.Check(func(seed int64, sizeRaw uint8) bool {
		p := int(sizeRaw%9) + 1
		rng := rand.New(rand.NewSource(seed))
		mat := make([][]int, p)
		for i := range mat {
			mat[i] = make([]int, p)
			for j := range mat[i] {
				mat[i][j] = rng.Intn(1000)
			}
		}
		ok := true
		Run(p, func(c *Comm) {
			in := alltoall(c, append([]int(nil), mat[c.Rank()]...), 40)
			for j, v := range in {
				if v != mat[j][c.Rank()] {
					ok = false
				}
			}
		})
		return ok
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickSparseExchangeRandomGraphs exchanges payloads over random
// communication graphs and verifies exact delivery.
func TestQuickSparseExchangeRandomGraphs(t *testing.T) {
	err := quick.Check(func(seed int64, sizeRaw uint8) bool {
		p := int(sizeRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		// edges[i][j]: i sends to j a payload derived from (i, j).
		edges := make([][]bool, p)
		for i := range edges {
			edges[i] = make([]bool, p)
			for j := range edges[i] {
				edges[i][j] = rng.Intn(3) == 0
			}
		}
		payload := func(i, j int) int64 { return int64(i*1000 + j) }
		ok := true
		Run(p, func(c *Comm) {
			out := map[int]int64{}
			for j := 0; j < p; j++ {
				if edges[c.Rank()][j] {
					out[j] = payload(c.Rank(), j)
				}
			}
			in := SparseExchange(c, out, 50)
			var want, got []int
			for i := 0; i < p; i++ {
				if edges[i][c.Rank()] {
					want = append(want, i)
				}
			}
			for i, v := range in {
				got = append(got, i)
				if v != payload(i, c.Rank()) {
					ok = false
				}
			}
			sort.Ints(got)
			if len(got) != len(want) {
				ok = false
			} else {
				for k := range got {
					if got[k] != want[k] {
						ok = false
					}
				}
			}
		})
		return ok
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}
