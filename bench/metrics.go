package main

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go holds the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics; every workload reports all of them.
// The unit of work is an octant (fig4-fractal), an element advanced one
// step (fig5-advect, fig9-seismic) or a job (serve-mix). The bounds are
// the widest the contract allows: two identical sets of ten runs on the
// 2-vCPU build host differed by up to 9 % in their medians (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"us_per_unit", "us", "lower", 0.25},
}

// perLayer are the metrics of the traced run, by the layer they time.
var perLayer = []metricDef{
	{Name: "core.new_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.refine_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.partition_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.balance_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.ghost_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.nodes_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.lnodes_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.rebalance_s_per_moct", Unit: "s/Moct", Better: "lower"},
	{Name: "core.partition_data_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.balance_rounds", Unit: "count", Better: "lower"},
	{Name: "core.balance_msgs", Unit: "count", Better: "lower"},
	{Name: "core.balance_bytes", Unit: "count", Better: "lower"},
	{Name: "core.ghost_msgs", Unit: "count", Better: "lower"},
	{Name: "core.ghost_bytes", Unit: "count", Better: "lower"},
	{Name: "core.partition_bytes", Unit: "count", Better: "lower"},
	{Name: "core.meta_bytes", Unit: "count", Better: "lower"},
	{Name: "core.recv_wait_share", Unit: "ratio", Better: "lower"},

	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "mpi.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.world_start_us", Unit: "us", Better: "lower"},
	{Name: "mpi.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_step", Unit: "count", Better: "lower"},
	{Name: "mpi.recv_wait_share", Unit: "ratio", Better: "lower"},

	{Name: "pool.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "pool.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "pool.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "pool.steals_per_apply", Unit: "steals", Better: "lower"},

	{Name: "mangll.newmesh_ms_per_kelem", Unit: "ms/kelem", Better: "lower"},
	{Name: "mangll.exchange_us", Unit: "us", Better: "lower"},
	{Name: "mangll.exchange_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mangll.apply_null_us", Unit: "us", Better: "lower"},
	{Name: "mangll.applyd_ns_per_dof", Unit: "ns/dof", Better: "lower"},
	{Name: "mangll.applyd_n6_ns_per_dof", Unit: "ns/dof", Better: "lower"},
	{Name: "mangll.applyd_flops_per_byte_computed", Unit: "flop/B", Better: "higher"},
	{Name: "mangll.facevalues_ns_per_fdof", Unit: "ns/fdof", Better: "lower"},
	{Name: "mangll.liftface_ns_per_fdof", Unit: "ns/fdof", Better: "lower"},
	{Name: "mangll.transfer_us_per_elem", Unit: "us/elem", Better: "lower"},
	{Name: "mangll.lsrk_ns_per_dof", Unit: "ns/dof", Better: "lower"},

	{Name: "advect.step_ns_per_dof", Unit: "ns/dof", Better: "lower"},
	{Name: "advect.rhs_ns_per_dof", Unit: "ns/dof", Better: "lower"},
	{Name: "advect.adapt_ms_per_kelem", Unit: "ms/kelem", Better: "lower"},
	{Name: "advect.amr_share", Unit: "ratio", Better: "lower"},
	{Name: "advect.dt_us", Unit: "us", Better: "lower"},
	{Name: "advect.shipped_pct", Unit: "%", Better: "lower"},
	{Name: "advect.allocs_per_step", Unit: "allocs", Better: "lower"},
	{Name: "advect.serial_us_per_elem_step", Unit: "us", Better: "lower"},
	{Name: "advect.par_eff_p2", Unit: "ratio", Better: "higher"},
	{Name: "advect.ckpt_save_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "advect.resume_s", Unit: "s", Better: "lower"},

	{Name: "seismic.meshing_s", Unit: "s", Better: "lower"},
	{Name: "seismic.newsolver_s", Unit: "s", Better: "lower"},
	{Name: "seismic.step_ns_per_dof", Unit: "ns/dof", Better: "lower"},
	{Name: "seismic.rhs_ns_per_dof", Unit: "ns/dof", Better: "lower"},
	{Name: "seismic.gflops_computed", Unit: "GFlop/s", Better: "higher"},
	{Name: "seismic.serial_us_per_elem_step", Unit: "us", Better: "lower"},
	{Name: "seismic.pool_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "seismic.device_us_per_elem_step", Unit: "us", Better: "lower"},
	{Name: "seismic.device_transfer_s", Unit: "s", Better: "lower"},
	{Name: "seismic.allocs_per_step", Unit: "allocs", Better: "lower"},

	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.null_job_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.manifest_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.events_per_job", Unit: "events", Better: "lower"},
	{Name: "serve.retries_429", Unit: "count", Better: "lower"},
	{Name: "serve.job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.job_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.job_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "telemetry.step_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "rhea.solve_s", Unit: "s", Better: "lower"},
	{Name: "rhea.minres_iters", Unit: "iters", Better: "lower"},
	{Name: "rhea.amr_share", Unit: "ratio", Better: "lower"},

	{Name: "bench.units_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.unaccounted_share", Unit: "ratio", Better: "lower"},
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(config) (*outcome, error)
}

var workloads = []workload{
	{"fig4-fractal", "static AMR from scratch: core does all the work (Balance+Nodes ~95 %); mangll, pool, solvers and serve do none", runFig4},
	{"fig5-advect", "dynamic AMR on 2 ranks: dG kernel, ghost exchange over mpi, incremental core, transfer and mesh rebuild; pool and serve idle", runFig5},
	{"fig9-seismic", "fixed-mesh 9-component kernel on 1 rank x 2 pool workers: mangll+seismic+pool do the work; mpi carries no messages", runFig9},
	{"serve-mix", "2 closed-loop clients, small jobs incl. checkpoint and crash-migrate: serve's own overhead is a large share of latency", runServeMix},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
