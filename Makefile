# Tier-1 verification: vet, build, and the full test suite under the race
# detector (the mpi runtime and the trace buffers are concurrency-critical,
# so plain `go test` is not enough). CI runs `make verify`.

GO ?= go

.PHONY: verify vet build test test-race bench bench-smoke bench-pair fig4 fig4-density density-pair fig7 fig9 fig10 fig4-highp chaos telemetry-smoke serve-smoke loc

verify: vet build test-race

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 5m ./...

test-race:
	$(GO) test -race -timeout 5m ./...

# The repository benchmark (BENCHMARK.json + bench/): every workload once,
# one JSON record per line on stdout.
bench:
	$(GO) run ./bench -all

# One iteration of every collective benchmark case, of every benchmark of
# core, mangll, stokes and octant, plus the solver step benchmarks (the
# seismic one at float64 and, on the device, float32) and the advection
# kernel's two hooks: catches deadlocks or regressions in the
# tree/star/sparse and split-phase exchange paths without paying for full
# timing. The allocation regression tests (every
# Test*Alloc*, including the span store's and the histogram's zero-alloc
# recording pins) and the forest's retained-bytes pin (Test*Retained*) run
# here too (without -race: both kinds of pin hold only in normal builds).
bench-smoke:
	$(GO) test -run '^$$' -bench=Collectives -benchtime=1x -timeout 5m ./internal/mpi/
	$(GO) test -run '^$$' -bench=. -benchtime=1x -timeout 5m ./internal/core/ ./internal/mangll/ ./internal/stokes/ ./internal/octant/
	$(GO) test -run '^$$' -bench='Benchmark(Advect|Seismic)Step|BenchmarkAdvectKernel|BenchmarkHostVsDeviceStep' -benchtime=1x -benchmem -timeout 5m ./internal/advect/ ./internal/seismic/
	$(GO) test -run 'Alloc|Retained' -timeout 5m ./internal/mpi/ ./internal/core/ ./internal/mangll/ ./internal/advect/ ./internal/seismic/ ./internal/trace/ ./internal/metrics/ ./internal/stokes/
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench='BenchmarkAdvectStep/P4/overlap$$' -benchtime=1x -timeout 5m ./internal/advect/
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench='BenchmarkAdvectStep/P1/overlap/w4$$' -benchtime=1x -timeout 5m ./internal/advect/

# Paired before/after runs of the repository benchmark (./bench), the
# protocol every performance claim follows: BASE (a commit) against the
# working tree, PAIRS pairs in shuffled order (a fixed-seed coin per pair)
# on seeds 1..PAIRS plus the unseen seed 4242, then `bench -compare`.
# WORKLOAD empty = all four.
#   make bench-pair BASE=HEAD~1 WORKLOAD=fig9-seismic
BASE ?= HEAD~1
WORKLOAD ?=
PAIRS ?= 10
bench-pair:
	bash scripts/bench_pair.sh $(BASE) "$(WORKLOAD)" $(PAIRS)

# Live-endpoint smoke: run cmd/advect with -telemetry, scrape /metrics and
# /healthz mid-run, and assert the key series (per-phase quantiles, mpi
# counters, rank health) are present; then check that the exit-time
# manifest summarises the traced phases.
telemetry-smoke:
	bash scripts/telemetry_smoke.sh

# Simulation-service smoke: start cmd/serve on an ephemeral port, drive a
# mixed concurrent job load through cmd/loadgen (admission control must
# engage, nothing may be dropped), run one job end to end over the raw
# API with SSE, scrape /metrics + /healthz, and check that SIGTERM drains
# gracefully.
serve-smoke:
	bash scripts/serve_smoke.sh

# Chaos suite: the fault-injection and checkpoint/restart tests under the
# race detector, then scripts/chaos_smoke.sh — the robust mode of both
# cmd/advect and cmd/seismic end to end: a seeded drop/dup/reorder plan
# with an injected rank crash must reproduce the fault-free run's field
# hash, and a corrupt checkpoint must fail -resume rather than hang it.
chaos:
	$(GO) test -race -timeout 5m -run 'Chaos|Crash|Resume|Restart|FaultStats|RankPanic|BcastErr|AgreeErr|Corrupt|PropagatesWrite|FieldCheckpoint' \
		./internal/mpi/ ./internal/mangll/ ./internal/core/ ./internal/advect/ ./internal/seismic/ ./internal/sim/
	bash scripts/chaos_smoke.sh

# Non-test Go lines outside bench/, total and per package: the number a
# simplicity PR reports (20,035 before the simulation runtime, PR 15).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2

# Regenerate the Figure 4 weak-scaling table (with the per-phase imbalance
# and recv-wait columns) into results/, headed by the commit it was
# measured at.
fig4:
	{ echo "commit $$(git describe --always --dirty)"; \
	  $(GO) run ./cmd/scaling -steps 3; } > results/fig4_scaling.txt

# The paper's density on one rank: the level-3 fractal forest (1.93 M
# octants) with its bytes per octant after each phase, peak RSS and live
# heap (about 40 s and 1 GB on 2 vCPUs).
fig4-density:
	{ echo "commit $$(git describe --always --dirty)"; \
	  $(GO) run ./cmd/scaling -ranks 1 -base-level 3; } > results/fig4_density.txt

# The density row of BASE (a commit) and of the working tree, three runs a
# side in alternating order, each run's bytes-per-octant row printed under
# its side (about 4 minutes on 2 vCPUs).
#   make density-pair BASE=HEAD~1
density-pair:
	bash scripts/density_pair.sh $(BASE)

# Regenerate the Figure 7 mantle-convection runtime split (solve / V-cycle
# / AMR) into results/, headed by the commit it was measured at (about 4
# minutes on 2 vCPUs).
fig7:
	{ echo "commit $$(git describe --always --dirty)"; \
	  $(GO) run ./cmd/mantle -ranks 1,2,4; } > results/fig7_mantle.txt

# Regenerate the Figure 9 strong-scaling table (host backend, PREM earth)
# and the Figure 10 weak-scaling table (float32 device backend) into
# results/, each headed by the commit it was measured at (about a minute
# each on 2 vCPUs).
fig9:
	{ echo "commit $$(git describe --always --dirty)"; \
	  $(GO) run ./cmd/seismic -strong -ranks 1,2,4 -steps 4 -degree 4 -max-level 5 -freq 0.004; } > results/fig9_seismic.txt

fig10:
	{ echo "commit $$(git describe --always --dirty)"; \
	  $(GO) run ./cmd/seismic -device -ranks 1,2,4 -steps 4 -degree 4 -max-level 5 -freq 0.0025; } > results/fig10_device.txt

# High-emulated-rank-count smoke: the full Fig-4 pipeline at P=256 on a
# small fractal forest. Exercises the recursive Balance/Ghost at partition
# counts far above what the unit tests use; CI runs this with a hard
# timeout.
fig4-highp:
	$(GO) run ./cmd/scaling -ranks 256 -base-level 1
