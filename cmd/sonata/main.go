// Command sonata runs a set of telemetry queries end-to-end over a packet
// trace: it trains the planner on the first windows, partitions and refines
// the queries across the switch simulator and the stream engine, then
// replays the remaining windows and prints per-window results.
//
// Usage:
//
//	sonata [-pcap trace.pcap] [-queries q1,q2,...] [-mode sonata]
//	       [-window 3s] [-train 2] [-pkts 100000] [-windows 6] [-v]
//	       [-workers N] [-debug-addr :9090] [-flightrec 64]
//	       [-subscribe-addr :9339] [-dial-out host:9339]
//	sonata -top [-debug-addr host:9090] [-top-interval 1s]
//
// Query names follow internal/queries (e.g. newly_opened_tcp_conns,
// superspreader). The default runs the eight header-field queries. Without
// -pcap the traffic is synthesized (-pkts packets per window, -windows
// windows); query thresholds scale with the packets per window of whichever
// source is replayed.
//
// With -debug-addr the process serves live introspection while running:
// /metrics (Prometheus text format), /debug/vars (expvar), /debug/pprof/,
// /debug/queries (the per-query flight recorder; append ?fmt=text for an
// aligned table), and /debug/trace (the always-on trace buffer: every
// window builds a span tree — root, lifecycle stages, per-(query, level)
// op spans with shard attribution — and slow or head-sampled windows are
// retained; append ?format=text for a waterfall or ?format=chrome for a
// Perfetto/chrome://tracing file).
//
// With -subscribe-addr the process serves gNMI-style streaming result
// subscriptions: collectors connect, pick a mode (on-change, sample, or
// target-defined), and receive each window's per-query results with
// per-subscriber backpressure (see internal/subscribe). With -dial-out the
// process instead (or additionally) pushes every window to a remote
// collector, one more subscriber, redialing with backoff. Either flag adds
// /debug/subscribers to the debug mux.
//
// With -top the command attaches to a running process instead: it polls
// http://<debug-addr>/debug/queries and renders a refreshing top-style view
// of per-query tuple-reduction factors, register pressure, plan drift, and
// attributed busy time.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracez"
	"repro/internal/tuple"
)

func main() {
	pcapPath := flag.String("pcap", "", "replay this pcap file instead of synthesizing traffic")
	queryList := flag.String("queries", "", "comma-separated query names (default: the eight header queries)")
	modeName := flag.String("mode", "sonata", "plan mode: sonata, all-sp, filter-dp, max-dp, fix-ref")
	window := flag.Duration("window", 3*time.Second, "query window W")
	trainWindows := flag.Int("train", 2, "training windows")
	pkts := flag.Int("pkts", 100_000, "synthetic packets per window")
	nWindows := flag.Int("windows", 6, "synthetic windows")
	verbose := flag.Bool("v", false, "print every result tuple")
	workers := flag.Int("workers", goruntime.GOMAXPROCS(0), "window-pipeline shards (1 = one shard on the calling goroutine)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof/, and /debug/queries on this address (with -top: the address to poll)")
	frCap := flag.Int("flightrec", flightrec.DefaultCapacity, "flight-recorder ring capacity (windows retained)")
	top := flag.Bool("top", false, "poll a running process's /debug/queries and render a refreshing top view")
	topInterval := flag.Duration("top-interval", time.Second, "refresh interval for -top")
	subscribeAddr := flag.String("subscribe-addr", "", "serve gNMI-style result subscriptions on this address")
	dialOut := flag.String("dial-out", "", "push every window's results to this collector address (dial-out telemetry)")
	flag.Parse()

	if *top {
		if *debugAddr == "" {
			fatal(fmt.Errorf("-top needs -debug-addr of the process to watch"))
		}
		if err := flightrec.WatchTop(os.Stdout, *debugAddr, *topInterval); err != nil {
			fatal(err)
		}
		return
	}

	mode, err := parseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	if *window <= 0 {
		fatal(fmt.Errorf("-window must be positive, got %v", *window))
	}

	// Observability: the registry, trace buffer, and flight recorder always
	// exist; the endpoints are opt-in. What always-on costs is measured, not
	// assumed: the harness's observer differentials (go run ./bench:
	// telemetry.tax_ns_per_pkt, tracez.tax_ns_per_pkt and
	// flightrec.tax_ns_per_pkt, quoted in README "Performance") are all
	// inside the differential's noise.
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, time.Now())
	tz := tracez.New(tracez.Options{})
	tz.Instrument(reg)
	// Without the endpoint nothing can read the recorder, so an overwritten
	// window is only worth a line when someone could have polled for it.
	var onEvict func(window int)
	if *debugAddr != "" {
		onEvict = func(window int) {
			fmt.Fprintf(os.Stderr, "[sonata] flight recorder overwrote unread window %d; raise -flightrec or poll faster\n", window)
		}
	}
	rec := flightrec.New(*frCap, onEvict)
	rec.Instrument(reg)
	rec.AttachTraceIndex(tz.Has)

	// Result delivery: one subscription server, for collectors that dial in,
	// a collector it dials out to, or both.
	var subSrv *subscribe.Server
	if *subscribeAddr != "" || *dialOut != "" {
		subSrv = subscribe.NewServer()
		subSrv.Instrument(reg)
		defer subSrv.Close()
	}
	if *subscribeAddr != "" {
		ln, err := net.Listen("tcp", *subscribeAddr)
		if err != nil {
			fatal(err)
		}
		go subSrv.Serve(ln)
		fmt.Fprintf(os.Stderr, "[sonata] subscription endpoint on %s\n", ln.Addr())
	}
	if *dialOut != "" {
		// Finest levels, every window, drop-oldest across outages.
		if _, err := subSrv.DialOut(*dialOut, subscribe.SubscribeRequest{
			Mode: subscribe.Sample, Policy: subscribe.DropOldest}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[sonata] dialing out to collector %s\n", *dialOut)
	}

	if *debugAddr != "" {
		mux := telemetry.NewDebugMux(reg)
		mux.Handle("/debug/queries", rec.Handler())
		mux.Handle("/debug/trace", tz.Handler())
		if subSrv != nil {
			mux.Handle("/debug/subscribers", subSrv.Handler())
		}
		srv, addr, err := telemetry.ServeDebugMux(*debugAddr, mux)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[sonata] debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof/, /debug/queries, /debug/trace)\n", addr)
	}

	// Assemble the packet source.
	var windows [][][]byte
	if *pcapPath != "" {
		windows, err = readPcapWindows(*pcapPath, *window)
		if err != nil {
			fatal(err)
		}
	} else {
		scale := eval.Scale{PacketsPerWindow: *pkts, Windows: *nWindows,
			TrainWindows: *trainWindows, Hosts: 6000, Seed: 1}
		w, err := eval.NewWorkload(scale)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < w.Gen.Windows(); i++ {
			windows = append(windows, w.Frames(i))
		}
	}
	if len(windows) <= *trainWindows {
		fatal(fmt.Errorf("trace has %d windows; need more than the %d training windows", len(windows), *trainWindows))
	}

	// Resolve queries.
	perWindow := *pkts
	if *pcapPath != "" {
		perWindow = meanPacketsPerWindow(windows)
	}
	params := eval.ScaledParams(eval.Scale{PacketsPerWindow: perWindow})
	params.Window = *window
	var qs []*query.Query
	if *queryList == "" {
		qs = queries.TopEight(params)
	} else {
		for _, name := range strings.Split(*queryList, ",") {
			q, err := queries.ByName(params, strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			qs = append(qs, q)
		}
	}

	// Train, plan, deploy. Queries are numbered 1..n in list order.
	for i, q := range qs {
		q.ID = uint16(i + 1)
	}
	var train []planner.Frames
	for i := 0; i < *trainWindows; i++ {
		train = append(train, planner.Frames(windows[i]))
	}
	fmt.Fprintf(os.Stderr, "[sonata] training %d queries on %d windows...\n", len(qs), *trainWindows)
	tr, err := planner.Train(qs, planner.DefaultMenu, train)
	if err != nil {
		fatal(err)
	}
	plannerOpts := planner.DefaultOptions()
	plannerOpts.Mode = mode
	plan, err := planner.PlanQueries(tr, qs, pisa.DefaultConfig(), plannerOpts)
	if err != nil {
		fatal(err)
	}
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{Workers: *workers})
	if err != nil {
		fatal(err)
	}
	rt.Instrument(reg, tz)
	rt.AttachFlightRecorder(rec)
	if subSrv != nil {
		rt.SetResultSink(subSrv)
	}
	fmt.Fprintln(os.Stderr, "[sonata] plan:")
	for _, line := range rt.EntrySummary() {
		fmt.Fprintln(os.Stderr, "  ", line)
	}

	names := map[uint16]string{}
	for _, q := range qs {
		names[q.ID] = q.Name
	}

	// Replay.
	for wi := *trainWindows; wi < len(windows); wi++ {
		rep := rt.ProcessWindow(windows[wi])
		fmt.Printf("window %d: %d packets at switch, %d tuples to stream processor, %d collisions\n",
			wi, rep.Switch.PacketsIn, rep.TuplesToSP, rep.Switch.Collisions)
		for _, res := range rep.Results {
			if len(res.Tuples) == 0 {
				continue
			}
			fmt.Printf("  %s (%d result(s))\n", names[res.QID], len(res.Tuples))
			if *verbose {
				for _, t := range res.Tuples {
					fmt.Printf("    %s\n", renderTuple(res.Schema, t))
				}
			}
		}
	}
	fmt.Printf("cumulative collision rate: %.4f%%\n", rt.CollisionRate()*100)
	rt.Close()
}

// readPcapWindows opens, reads, and slices a pcap file into per-window
// frame batches; a non-positive window is an error. The file is closed on
// every path (including read errors) via the deferred Close.
func readPcapWindows(path string, window time.Duration) (windows [][][]byte, err error) {
	if window <= 0 {
		return nil, fmt.Errorf("non-positive window %v", window)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := trace.ReadPcap(f)
	if err != nil {
		return nil, err
	}
	total := time.Duration(0)
	if len(recs) > 0 {
		total = recs[len(recs)-1].TS + 1
	}
	for _, win := range trace.Slice(recs, window, total) {
		windows = append(windows, win.Frames())
	}
	return windows, nil
}

// meanPacketsPerWindow is the packets-per-window figure query thresholds
// scale with when the input is a capture rather than -pkts synthesis.
func meanPacketsPerWindow(windows [][][]byte) int {
	if len(windows) == 0 {
		return 0
	}
	total := 0
	for _, w := range windows {
		total += len(w)
	}
	return total / len(windows)
}

func renderTuple(schema tuple.Schema, t []tuple.Value) string {
	parts := make([]string, len(t))
	for i, v := range t {
		name := "?"
		if i < len(schema) {
			name = schema[i].String()
		}
		if !v.Str && i < len(schema) && strings.Contains(name, "IP") {
			parts[i] = fmt.Sprintf("%s=%s", name, packet.IPv4String(uint32(v.U)))
		} else {
			parts[i] = fmt.Sprintf("%s=%s", name, v.String())
		}
	}
	return strings.Join(parts, " ")
}

func parseMode(s string) (planner.Mode, error) {
	switch strings.ToLower(s) {
	case "sonata":
		return planner.ModeSonata, nil
	case "all-sp", "allsp":
		return planner.ModeAllSP, nil
	case "filter-dp", "filterdp":
		return planner.ModeFilterDP, nil
	case "max-dp", "maxdp":
		return planner.ModeMaxDP, nil
	case "fix-ref", "fixref":
		return planner.ModeFixRef, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sonata:", err)
	os.Exit(1)
}
