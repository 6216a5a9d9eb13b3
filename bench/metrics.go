package main

// workload is one set of inputs the benchmark runs. Every workload uses the
// eight header-field queries, pisa.DefaultConfig(), levels {8,16,24}, two
// training and four evaluation windows, and the observers cmd/sonata
// attaches.
type workload struct {
	name string
	why  string
	// pkts and hosts size the generated trace (packets per window, host
	// population); workloads of equal size share one trace.
	pkts, hosts int
	allSP       bool // plan with planner.ModeAllSP instead of the Sonata plan
	workers     int  // runtime.Options.Workers
	subs        int  // sample-mode all-level subscribers draining to io.Discard
	// tracedWindows bounds the traced phase; setups is how many times set-up
	// is repeated for the setup_s median (one at the 100k scale, where a
	// single set-up costs five seconds of the driver's run budget).
	tracedWindows int
	setups        int
	// observerTaxes adds the four-deployment observer differentials to the
	// traced run (14 s at 100k, so on the home workload only).
	observerTaxes bool
}

const (
	seqName   = "sonata-seq-100k"
	allSPName = "allsp-seq-100k"
	shardName = "sonata-shard2-100k"
	smallName = "sonata-small-4k-subs"
)

// workloads must agree with BENCHMARK.json (checked by the self-tests).
var workloads = []workload{
	{name: seqName, pkts: 100_000, hosts: 6000, workers: 1, tracedWindows: 24, setups: 1, observerTaxes: true,
		why: "Sonata plan on one core with keyed state beyond L2: the deployed default, where pisa tables and registers dominate"},
	{name: allSPName, pkts: 100_000, hosts: 6000, allSP: true, workers: 1, tracedWindows: 24, setups: 1,
		why: "same trace with the All-SP plan: the switch only mirrors, so emitter and stream ingest dominate and pisa does little"},
	{name: shardName, pkts: 100_000, hosts: 6000, workers: 2, tracedWindows: 24, setups: 1,
		why: "Sonata plan on two worker shards: dispatch-side prescreen, SPSC rings, back-pressure and the parallel close"},
	{name: smallName, pkts: 4_000, hosts: 500, workers: 1, subs: 100, tracedWindows: 400, setups: 3,
		why: "cache-resident 4k windows with 100 subscribers: per-window fixed costs (close, refinement, publish) dominate"},
}

// quick shrinks every workload to smoke-test size (2k packets per window).
func quick(w workload) workload {
	w.pkts, w.hosts = 2_000, 500
	w.tracedWindows = 8
	w.setups = 1
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one row of the glossary. moves names the end-to-end metric a
// per-layer metric should move, and on which workloads; the traced run's
// table prints it beside the value.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	moves  string // "" for end-to-end metrics
}

// endToEnd lists the metrics a plain run reports. Their regression bounds
// live in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "pkts_per_s", unit: "pkts/s", better: "higher"},
	{name: "window_ms_p90", unit: "ms", better: "lower"},
	{name: "close_ms_p50", unit: "ms", better: "lower"},
	{name: "sp_tuples_per_window", unit: "tuples/window", better: "lower"},
	{name: "found_share", unit: "share", better: "higher"},
	{name: "alloc_bytes_per_window", unit: "bytes/window", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer lists the metrics a traced run reports; a name's prefix is its
// layer, which is a package. A value
// of 0 means the metric does not apply to the workload (see README.md).
var perLayer = []metricDef{
	{"runtime.ingest_ns_per_pkt", "ns/pkt", "lower", "pkts_per_s, all"},
	{"runtime.close_ms", "ms", "lower", "close_ms_p50 all; pkts_per_s on " + smallName + " only"},
	{"runtime.close_ms_p90", "ms", "lower", "window_ms_p90 on " + smallName},
	{"runtime.refine_ms", "ms", "lower", "close_ms_p50, all Sonata plans"},
	{"runtime.filter_updates", "count", "lower", "close_ms_p50 through runtime.refine_ms"},
	{"runtime.shard_busy_sum_ms", "ms", "lower", "pkts_per_s on " + shardName},
	{"runtime.shard_busy_max_ms", "ms", "lower", "pkts_per_s on " + shardName},
	{"runtime.speedup_potential", "ratio", "higher", "pkts_per_s on " + shardName},
	{"runtime.wall_over_critical", "ratio", "lower", "pkts_per_s on " + shardName},
	{"runtime.allocs_per_window", "count", "lower", "alloc_bytes_per_window"},
	{"runtime.gc_cycles", "count", "lower", "alloc_bytes_per_window"},
	{"runtime.deploy_ms", "ms", "lower", "setup_s"},
	{"runtime.warmup_ms", "ms", "lower", "setup_s"},
	{"runtime.reference_keys", "count", "higher", "denominator of found_share"},
	{"runtime.missed_keys", "count", "lower", "found_share on Sonata plans"},
	{"runtime.extra_keys", "count", "lower", "none (reported, not gated)"},
	{"packet.parse_ns_per_pkt", "ns/pkt", "lower", "pkts_per_s, all, at most 10-15%"},
	{"pisa.switch_ns_per_pkt", "ns/pkt", "lower", "pkts_per_s on sonata-*-100k; about 10% on " + allSPName},
	{"pisa.stage_fidelity", "ratio", "higher", "none (how much of the real work the stage saw)"},
	{"pisa.dump_ms", "ms", "lower", "close_ms_p50"},
	{"pisa.mirrored_per_window", "count", "lower", "sp_tuples_per_window"},
	{"pisa.dump_tuples_per_window", "count", "lower", "sp_tuples_per_window"},
	{"pisa.collisions_per_window", "count", "lower", "found_share"},
	{"emitter.codec_ns_per_mirror", "ns/mirror", "lower", "pkts_per_s on " + allSPName + " only"},
	{"emitter.frames_per_window", "count", "lower", "sp_tuples_per_window"},
	{"emitter.mirror_path_ns_per_mirror", "ns/mirror", "lower", "pkts_per_s on " + allSPName},
	{"stream.ingest_ns_per_tuple", "ns/tuple", "lower", "pkts_per_s on " + allSPName},
	{"stream.eval_ms", "ms", "lower", "close_ms_p50, largest on " + allSPName},
	{"stream.results_per_window", "count", "higher", "found_share"},
	{"telemetry.tax_ns_per_pkt", "ns/pkt", "lower", "pkts_per_s on " + seqName},
	{"tracez.tax_ns_per_pkt", "ns/pkt", "lower", "pkts_per_s on " + seqName},
	{"flightrec.tax_ns_per_pkt", "ns/pkt", "lower", "pkts_per_s on " + seqName},
	{"subscribe.publish_ms", "ms", "lower", "close_ms_p50 on " + smallName},
	{"planner.train_s", "s", "lower", "setup_s"},
	{"planner.plan_ms", "ms", "lower", "setup_s"},
	{"planner.instances", "count", "lower", "pisa.switch_ns_per_pkt"},
	{"planner.expected_n", "count", "lower", "sp_tuples_per_window (trained estimate beside the observed)"},
	{"trace.gen_s", "s", "lower", "none (load generator)"},
	{"trace.pkts_per_window", "count", "higher", "none (input size)"},
	{"trace.bytes_per_pkt", "bytes", "lower", "none (input size)"},
	{"bench.trace_overhead_pct", "%", "lower", "none (traced vs plain runtime.ingest_ns_per_pkt)"},
	{"bench.windows", "count", "higher", "none (sample count behind every percentile)"},
	{"bench.spin_ns_before", "ns", "lower", "none (host noise probe)"},
	{"bench.spin_ns_after", "ns", "lower", "none (host noise probe)"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export pairs every defined metric with its unit. A name the run never set
// reports 0, the "does not apply" value. A value under a name that is not
// defined is a bug in this package, caught by the smoke test.
func export(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("bench: metric " + name + " is not defined in metrics.go")
		}
	}
	return out
}
