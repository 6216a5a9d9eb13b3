// Command eval regenerates the paper's tables and figures against the
// synthetic workload. Each experiment prints an aligned table plus a TSV
// block suitable for plotting.
//
// Usage:
//
//	eval [-scale small|medium|large] [-out dir] [-workers N] [-debug-addr :9090] [experiment ...]
//
// Experiments: table3, fig3, fig5, fig7a, fig7b, fig8, fig9, overhead, all.
//
// With -out each table is also written to dir/<id>.tsv; a failed write
// stops the run with exit status 1, so a regeneration never leaves a stale
// file behind silently. With -debug-addr the process serves /metrics,
// /debug/vars and /debug/pprof/ while the experiments run — pprof is the
// intended way to profile a long "large"-scale run. The figure runtimes
// themselves are not instrumented: Fig. 7 and 8 run several at once, and
// the observed deployment, with its flight recorder, span trees,
// subscriptions and -top view, is cmd/sonata.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "medium", "workload scale: small, medium, or large")
	outDir := flag.String("out", "", "directory for TSV outputs (optional)")
	workers := flag.Int("workers", goruntime.GOMAXPROCS(0), "window-pipeline shards (1 = one shard on the calling goroutine)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof/ on this address")
	flag.Parse()

	if *debugAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, time.Now())
		srv, addr, err := telemetry.ServeDebugMux(*debugAddr, telemetry.NewDebugMux(reg))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[eval] debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", addr)
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
				fatal(err)
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
			w.Workers = *workers
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
			emit(eval.Table3(queries.DefaultParams(), planner.DefaultMenu))
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
