package core

import (
	"testing"

	"repro/internal/connectivity"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// ghostCommVolume builds a balanced forest at the given refinement depth
// and returns the global ghost count plus the aggregate bytes sent on the
// Ghost exchange tag.
func ghostCommVolume(t *testing.T, maxLevel int8) (ghosts, bytes int64) {
	t.Helper()
	const p = 6
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	mpi.Run(p, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, maxLevel, fractalRefine(maxLevel))
		f.Balance(BalanceFull)
		f.Partition()
		c.ResetStats()
		g := f.Ghost()
		st := c.Stats()
		var sent int64
		if ts := st.ByTag[TagGhost]; ts != nil {
			sent = ts.BytesSent
		}
		// A rank's received ghost bytes must cover the octants it actually
		// holds as ghosts (17 wire bytes each), i.e. the volume reflects
		// real octant payloads rather than bare message envelopes.
		var recvd int64
		if ts := st.ByTag[TagGhost]; ts != nil {
			recvd = ts.BytesRecvd
		}
		if min := 17 * int64(g.NumGhosts()); recvd < min {
			t.Errorf("rank %d: ghost bytes recvd %d < 17 x %d ghosts", c.Rank(), recvd, g.NumGhosts())
		}
		gsum := mpi.AllreduceSum(c, int64(g.NumGhosts()))
		bsum := mpi.AllreduceSum(c, sent)
		if c.Rank() == 0 {
			ghosts, bytes = gsum, bsum
		}
	})
	return ghosts, bytes
}

// TestGhostBytesScaleWithGhostCount asserts the per-tag communication
// volume of Ghost grows with the number of ghost octants (i.e. with the
// partition-boundary size), which only holds when octant payload slices
// are sized at their real wire volume by the statistics.
func TestGhostBytesScaleWithGhostCount(t *testing.T) {
	coarseGhosts, coarseBytes := ghostCommVolume(t, 2)
	fineGhosts, fineBytes := ghostCommVolume(t, 3)
	if coarseGhosts == 0 || coarseBytes == 0 {
		t.Fatalf("coarse run saw no ghost traffic: %d ghosts, %d bytes", coarseGhosts, coarseBytes)
	}
	if fineGhosts <= coarseGhosts {
		t.Fatalf("refinement did not grow the boundary: %d -> %d ghosts", coarseGhosts, fineGhosts)
	}
	if fineBytes <= coarseBytes {
		t.Errorf("ghost bytes did not scale with ghost count: %d ghosts/%d bytes -> %d ghosts/%d bytes",
			coarseGhosts, coarseBytes, fineGhosts, fineBytes)
	}
	// Sent payload volume must at least cover one 17-byte octant per ghost
	// (each ghost was shipped by its owner at least once).
	if fineBytes < 17*fineGhosts {
		t.Errorf("ghost volume %d bytes below 17 x %d ghosts", fineBytes, fineGhosts)
	}
}

// balanceSeeds runs body on p ranks with a metrics registry attached and
// returns what the ranks together added to the balance_seeds counter after
// body called start (collectively).
func balanceSeeds(p int, body func(c *mpi.Comm, start func())) int64 {
	reg := metrics.NewSharded(p)
	var base int64
	mpi.RunOpt(p, mpi.RunOptions{Metrics: reg}, func(c *mpi.Comm) {
		body(c, func() {
			c.Barrier()
			if c.Rank() == 0 {
				base = reg.Counter("balance_seeds").Value()
			}
			c.Barrier()
		})
	})
	return reg.Counter("balance_seeds").Value() - base
}

// TestBalanceSeedsPinned pins how many leaves Balance enumerates the
// neighbourhood of. From scratch with one exchange round: every local leaf
// once, plus each leaf Balance created at most once — a rank on which the
// received demands create nothing must not repeat its whole local pass (it
// did, when a nil seed list meant "all"). After an adapt cycle of the
// fig5-advect kind, which changes about one leaf in a hundred: a quarter of
// the leaves at most.
func TestBalanceSeedsPinned(t *testing.T) {
	const p = 2
	var before, after int64
	var rounds int
	seeds := balanceSeeds(p, func(c *mpi.Comm, start func()) {
		f := fig4Forest(c, 1)
		start()
		n0 := f.NumGlobal()
		f.Balance(BalanceFull)
		if c.Rank() == 0 {
			before, after, rounds = n0, f.NumGlobal(), f.BalanceRounds
		}
	})
	if rounds != 1 {
		t.Fatalf("from scratch: %d exchange rounds, the pin is for one", rounds)
	}
	t.Logf("from scratch: %d seeds, %d leaves grown to %d", seeds, before, after)
	// Each split adds seven leaves and creates eight.
	if limit := before + (after-before)*8/7; seeds > limit || seeds < before {
		t.Errorf("from scratch: %d neighbourhoods enumerated for %d leaves grown to %d, want %d..%d",
			seeds, before, after, before, limit)
	}

	var leaves, changed int64
	seeds = balanceSeeds(p, func(c *mpi.Comm, start func()) {
		f := New(c, connectivity.Shell(0.55, 1), 1)
		f.Refine(true, 3, fractalRefine(3))
		f.Balance(BalanceFull)
		f.Partition()
		n0 := f.NumGlobal()
		f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool { return pickMod(parent, 1, 80) == 0 })
		f.Refine(false, 4, func(o octant.Octant) bool { return pickMod(o, 2, 1200) == 0 })
		ch := mpi.AllreduceSum(c, int64(len(f.changed)))
		start()
		f.Balance(BalanceFull)
		if c.Rank() == 0 {
			leaves, changed = n0, ch
		}
	})
	t.Logf("re-balance: %d seeds, %d of %d leaves changed", seeds, changed, leaves)
	if changed*200 < leaves || changed*50 > leaves {
		t.Fatalf("re-balance: %d of %d leaves changed, the pin is for 0.5-2 %%", changed, leaves)
	}
	if seeds == 0 || seeds*4 > leaves {
		t.Errorf("re-balance: %d neighbourhoods enumerated after %d of %d leaves changed, want at most a quarter",
			seeds, changed, leaves)
	}
}

// TestBalanceSeedsExact pins the balance_seeds counter exactly where its
// value is known: after a change that leaves the forest balanced — a few
// leaves of a uniform level-2 forest refined, or a few families of a
// uniform level-3 forest coarsened — an incremental Balance runs one local
// iteration, seeded by the changed leaves alone (no leaf is two levels
// finer than a changed one), and creates nothing; the counter is the
// number of changed leaves, each counted once.
func TestBalanceSeedsExact(t *testing.T) {
	conn := connectivity.SixRotCubes()
	changes := []struct {
		name  string
		level int8
		adapt func(f *Forest)
	}{
		{"refine", 2, func(f *Forest) {
			f.Refine(false, 3, func(o octant.Octant) bool { return pickMod(o, 3, 40) == 0 })
		}},
		{"coarsen", 3, func(f *Forest) {
			f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool { return pickMod(parent, 4, 40) == 0 })
		}},
	}
	for _, ch := range changes {
		for _, p := range []int{1, 2} {
			var changed, grown int64
			seeds := balanceSeeds(p, func(c *mpi.Comm, start func()) {
				f := New(c, conn, ch.level)
				f.Balance(BalanceFull)
				ch.adapt(f)
				n := f.NumGlobal()
				ct := mpi.AllreduceSum(c, int64(len(f.changed)))
				start()
				f.Balance(BalanceFull)
				if c.Rank() == 0 {
					changed, grown = ct, f.NumGlobal()-n
				}
			})
			if changed == 0 || grown != 0 {
				t.Fatalf("%s, P=%d: %d leaves changed and Balance grew the forest by %d, the pin is for some and none",
					ch.name, p, changed, grown)
			}
			if seeds != changed {
				t.Errorf("%s, P=%d: balance_seeds counted %d, want the %d changed leaves", ch.name, p, seeds, changed)
			}
		}
	}
}

// TestNodesTrafficPinned pins what the Nodes numbering sends: the messages
// and bytes of the key requests and the id replies, summed over the ranks,
// on the balanced SixRotCubes fractal (level 1 + 2). The counts were
// recorded with the per-corner implementation at 661f210; a Nodes that
// numbers the same keys for the same owners sends exactly these.
func TestNodesTrafficPinned(t *testing.T) {
	want := map[int][4]int64{ // P -> request msgs, request bytes, reply msgs, reply bytes
		4: {5, 2976, 5, 1528},
		8: {17, 5568, 17, 2920},
	}
	for _, p := range []int{4, 8} {
		var got [4]int64
		mpi.Run(p, func(c *mpi.Comm) {
			f := New(c, connectivity.SixRotCubes(), 1)
			f.Refine(true, 3, fractalRefine(3))
			f.Balance(BalanceFull)
			f.Partition()
			g := f.Ghost()
			c.ResetStats()
			f.Nodes(g)
			req, rep := c.TagStat(TagNodesReq), c.TagStat(TagNodesRep)
			for i, v := range [4]int64{req.MsgsSent, req.BytesSent, rep.MsgsSent, rep.BytesSent} {
				if sum := mpi.AllreduceSum(c, v); c.Rank() == 0 {
					got[i] = sum
				}
			}
		})
		if got != want[p] {
			t.Errorf("P=%d: Nodes sent %d requests (%d B) and %d replies (%d B), pinned %v", p, got[0], got[1], got[2], got[3], want[p])
		}
	}
}
