// Command eval regenerates the paper's tables and figures against the
// synthetic workload. Each experiment prints an aligned table plus a TSV
// block suitable for plotting.
//
// Usage:
//
//	eval [-scale small|medium|large] [-out dir] [-workers N] [-debug-addr :9090]
//	     [-subscribe-addr :9339] [experiment ...]
//	eval -top [-debug-addr host:9090] [-top-interval 1s]
//
// Experiments: table3, fig3, fig5, fig7a, fig7b, fig8, fig9, overhead, all.
//
// With -debug-addr the process serves /metrics, /debug/vars, /debug/pprof/,
// /debug/queries, and (with -subscribe-addr) /debug/subscribers while the
// experiments run — pprof in particular is the intended way to profile a
// long "large"-scale run. With -subscribe-addr it additionally serves
// gNMI-style result subscriptions: every deployed runtime streams its
// per-window results to attached collectors. With -top it attaches to a
// running process instead, rendering a refreshing per-query view.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/pisa"
	"repro/internal/queries"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
	"repro/internal/tracez"
)

func main() {
	scaleFlag := flag.String("scale", "medium", "workload scale: small, medium, or large")
	outDir := flag.String("out", "", "directory for TSV outputs (optional)")
	workers := flag.Int("workers", goruntime.GOMAXPROCS(0), "window-pipeline shards (1 = one shard on the calling goroutine)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this address (with -top: the address to poll)")
	subscribeAddr := flag.String("subscribe-addr", "", "serve gNMI-style result subscriptions on this address")
	top := flag.Bool("top", false, "poll a running process's /debug/queries and render a refreshing top view")
	topInterval := flag.Duration("top-interval", time.Second, "refresh interval for -top")
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

	eval.DefaultWorkers = *workers

	// The registry and flight recorder always exist (their measured cost on
	// the packet path is inside the harness's noise; see cmd/sonata); the
	// endpoints are opt-in.
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, time.Now())
	eval.DefaultTelemetry = reg // every deployed runtime registers here
	tz := tracez.New(tracez.Options{})
	tz.Instrument(reg)
	eval.DefaultTracez = tz // /debug/trace follows the live runtime
	rec := flightrec.New(0, nil)
	rec.Instrument(reg)
	rec.AttachTraceIndex(tz.Has)
	eval.DefaultFlightRec = rec // /debug/queries follows the live runtime

	var subSrv *subscribe.Server
	if *subscribeAddr != "" {
		subSrv = subscribe.NewServer()
		subSrv.Instrument(reg)
		eval.DefaultResultSink = subSrv // every deployed runtime publishes here
		ln, err := net.Listen("tcp", *subscribeAddr)
		if err != nil {
			fatal(err)
		}
		defer subSrv.Close()
		go subSrv.Serve(ln)
		fmt.Fprintf(os.Stderr, "[eval] subscription endpoint on %s\n", ln.Addr())
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
		fmt.Fprintf(os.Stderr, "[eval] debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof/, /debug/queries, /debug/trace)\n", addr)
	}

	var scale eval.Scale
	switch *scaleFlag {
	case "small":
		scale = eval.SmallScale()
	case "medium":
		scale = eval.MediumScale()
	case "large":
		scale = eval.LargeScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	experiments := flag.Args()
	if len(experiments) == 0 || (len(experiments) == 1 && experiments[0] == "all") {
		experiments = []string{"table3", "fig3", "fig5", "fig7a", "fig7b", "fig8", "fig9", "overhead"}
	}

	emit := func(t *eval.Table) {
		fmt.Println(t.Render())
		if *outDir != "" {
			path := filepath.Join(*outDir, t.ID+".tsv")
			if err := os.WriteFile(path, []byte(t.TSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			}
		}
	}

	var w *eval.Workload
	workload := func() *eval.Workload {
		if w == nil {
			var err error
			w, err = eval.NewWorkload(scale)
			if err != nil {
				fatal(err)
			}
			w.Preload(*workers)
		}
		return w
	}
	cfg := pisa.DefaultConfig()

	for _, exp := range experiments {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "[eval] running %s at %s scale...\n", exp, *scaleFlag)
		switch exp {
		case "table3":
			emit(eval.Table3(queries.DefaultParams(), []int{8, 16, 24}))
		case "fig3":
			emit(eval.Fig3())
		case "fig5":
			t, err := eval.Fig5(workload(), 0)
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "fig7a":
			t, err := eval.Fig7a(workload(), cfg)
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "fig7b":
			t, err := eval.Fig7b(workload(), cfg)
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "fig8":
			tabs, err := eval.Fig8(workload(), cfg)
			if err != nil {
				fatal(err)
			}
			for _, id := range []string{"fig8a", "fig8b", "fig8c", "fig8d"} {
				emit(tabs[id])
			}
		case "fig9":
			res, err := eval.CaseStudy(scale)
			if err != nil {
				fatal(err)
			}
			emit(res.Table)
			fmt.Printf("victim identified in window %d; attack confirmed in window %d\n\n",
				res.VictimIdentifiedWindow, res.AttackConfirmedWindow)
		case "overhead":
			t, err := eval.Overhead(workload(), cfg)
			if err != nil {
				fatal(err)
			}
			emit(t)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "[eval] %s done in %v\n", exp, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eval:", err)
	os.Exit(1)
}
