package main

// This file is the benchmark's declaration: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root is `-spec` output of
// these tables, and bench_test.go fails when the two disagree.

// runSeconds is the length of one measurement window. The driver makes
// 4 + 22 × 7 = 158 runs inside a 3420 s cap, so a run may take about
// 21 s in all; 10 s of window leaves room for three set-ups, the 2 s
// Class-1 baseline and the build check.
const runSeconds = 10

// benchCommand is how the driver starts one run, from the root of a
// checkout.
var benchCommand = []string{"bash", "bench/run.sh"}

// benchPaths are the directories that hold the benchmark.
var benchPaths = []string{"bench"}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

var workloadSpecs = []workloadSpec{
	{"uts", "load balancing: glb steals and lifelines, sched and FINISH_DENSE do the work; collectives and the wire do none"},
	{"kmeans", "latency-bound collectives: three small all-reduces per iteration on 8 oversubscribed places; glb does nothing"},
	{"fft", "bandwidth-bound collectives: three all-to-all transposes of the whole array per solve, the opposite regime to kmeans"},
	{"ra", "the congruent one-sided lane (RemoteXorBatch) and small chan messages; almost no finish control, no collectives"},
	{"finish", "pure finish control, sched and chan sends with empty bodies: no kernel optimisation can hide here"},
	{"wire-small", "64-byte codec messages over batched loopback TCP: per-message encode, framing and decode cost dominates"},
	{"wire-large", "1 MiB active messages and one-sided puts over the same mesh: bytes/s, writev and zero-copy lanes"},
}

const (
	higher = "higher"
	lower  = "lower"
)

var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"solve_s", "s", lower, 0.10},
	{"work_per_s", "ops/s", higher, 0.10},
	{"class1_ratio", "x", higher, 0.15},
	{"peak_rss_mb", "MB", lower, 0.10},
}

// finishPatternKeys names the per-pattern finish timers of the `finish`
// workload, in core.Pattern order.
var finishPatternKeys = [...]string{"default", "async", "here", "local", "spmd", "dense"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		// apps (+kernels)
		{Name: "apps.work_units", Unit: "count", Better: higher},
		{Name: "apps.compute_s", Unit: "s", Better: lower},
		{Name: "apps.verify_s", Unit: "s", Better: lower},
		// sched
		{Name: "sched.spawned", Unit: "count", Better: lower},
		{Name: "sched.blocked", Unit: "count", Better: lower},
		{Name: "sched.local_async_ns", Unit: "ns", Better: lower},
		// core
		{Name: "core.finish_ctl_s", Unit: "s", Better: lower},
		{Name: "core.transport_gap_s", Unit: "s", Better: lower},
		{Name: "core.ctl_msgs", Unit: "count", Better: lower},
		{Name: "core.ctl_bytes", Unit: "bytes", Better: lower},
		{Name: "core.at_roundtrip_us", Unit: "us", Better: lower},
		{Name: "core.bcast_us", Unit: "us", Better: lower},
	}
	for _, q := range []string{"p50", "p90"} {
		for _, k := range finishPatternKeys {
			m = append(m, metricSpec{Name: "core.finish." + k + "_" + q + "_us", Unit: "us", Better: lower})
		}
	}
	return append(m,
		// glb
		metricSpec{Name: "glb.steal_attempts", Unit: "count", Better: lower},
		metricSpec{Name: "glb.steal_successes", Unit: "count", Better: higher},
		metricSpec{Name: "glb.steal_success_ratio", Unit: "ratio", Better: higher},
		metricSpec{Name: "glb.lifeline_requests", Unit: "count", Better: lower},
		metricSpec{Name: "glb.lifeline_deliveries", Unit: "count", Better: lower},
		metricSpec{Name: "glb.resuscitations", Unit: "count", Better: lower},
		metricSpec{Name: "glb.steal_s", Unit: "s", Better: lower},
		metricSpec{Name: "glb.lifeline_wait_s", Unit: "s", Better: lower},
		// collectives
		metricSpec{Name: "collectives.crit_s", Unit: "s", Better: lower},
		metricSpec{Name: "collectives.ops", Unit: "count", Better: lower},
		metricSpec{Name: "collectives.barrier_us", Unit: "us", Better: lower},
		metricSpec{Name: "collectives.allreduce_8k_us", Unit: "us", Better: lower},
		metricSpec{Name: "collectives.bcast_64k_us", Unit: "us", Better: lower},
		metricSpec{Name: "collectives.alltoall_1m_us", Unit: "us", Better: lower},
		// congruent
		metricSpec{Name: "congruent.put_1m_mb_per_s", Unit: "MB/s", Better: higher},
		metricSpec{Name: "congruent.get_1m_mb_per_s", Unit: "MB/s", Better: higher},
		metricSpec{Name: "congruent.xor_batch_mupd_per_s", Unit: "Mupd/s", Better: higher},
		metricSpec{Name: "congruent.alloc_us", Unit: "us", Better: lower},
		// x10rt
		metricSpec{Name: "x10rt.msgs", Unit: "count", Better: lower},
		metricSpec{Name: "x10rt.payload_bytes", Unit: "bytes", Better: lower},
		metricSpec{Name: "x10rt.wire_bytes", Unit: "bytes", Better: lower},
		metricSpec{Name: "x10rt.wire_amp", Unit: "ratio", Better: lower},
		metricSpec{Name: "x10rt.encode_ns_per_msg", Unit: "ns", Better: lower},
		metricSpec{Name: "x10rt.decode_ns_per_msg", Unit: "ns", Better: lower},
		metricSpec{Name: "x10rt.queue_wait_ns_per_msg", Unit: "ns", Better: lower},
		metricSpec{Name: "x10rt.msgs_per_frame", Unit: "count", Better: higher},
		metricSpec{Name: "x10rt.memcpy_mb_per_s", Unit: "MB/s", Better: higher},
		// obs + telemetry + perfobs
		metricSpec{Name: "obs.traced_overhead_frac", Unit: "ratio", Better: lower},
		metricSpec{Name: "obs.events_per_solve", Unit: "count", Better: lower},
		// go runtime
		metricSpec{Name: "go.alloc_mb_per_solve", Unit: "MB", Better: lower},
		metricSpec{Name: "go.mallocs_per_solve", Unit: "count", Better: lower},
		metricSpec{Name: "go.gc_pause_ms_per_solve", Unit: "ms", Better: lower},
		metricSpec{Name: "go.gc_cycles_per_solve", Unit: "count", Better: lower},
		// the harness itself
		metricSpec{Name: "bench.solve_p90_s", Unit: "s", Better: lower},
		metricSpec{Name: "bench.solve_iqr_frac", Unit: "ratio", Better: lower},
		metricSpec{Name: "bench.solves", Unit: "count", Better: higher},
		metricSpec{Name: "bench.budget_coverage", Unit: "ratio", Better: higher},
	)
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func declaredSpec() benchmarkJSON {
	return benchmarkJSON{
		Command:    benchCommand,
		Paths:      benchPaths,
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
