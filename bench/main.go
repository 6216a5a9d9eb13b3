// Command bench is the repository's benchmark: it replays generated traffic
// through the window loop of the deployed default (what cmd/sonata runs,
// observers attached) and reports seven end-to-end metrics per workload and,
// from a separate traced run, the per-layer metrics beneath them. README.md
// in this directory is the glossary.
//
//	go run ./bench -seed 1                      all workloads, plain + traced, gates, record
//	go run ./bench -workload W -seed 1 -seconds 20 -trace 0|1
//	                                            one run; last stdout line is the result object
//	go run ./bench -quick                       smoke size (2k packets per window, 1 s)
//	go run ./bench -compare old.json new.json   verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "run only this workload and print one result object as the last line of stdout")
	seed := flag.Int64("seed", 1, "trace seed: the same seed gives the same frames")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload (default 30; 1 with -quick)")
	traced := flag.Int("trace", 0, "with -workload: 0 = plain run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	quickFlag := flag.Bool("quick", false, "smoke size: 2k packets per window, 1 s per workload")
	outDir := flag.String("outdir", filepath.Join("bench", "out"), "directory for span files and the record")
	out := flag.String("out", "", "record file of a full run (default <outdir>/record.json)")
	compare := flag.Bool("compare", false, "compare two records: -compare old.json new.json (each may be a comma-separated list)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two record files"))
		}
		worse, err := compareRecords(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	// One run prints its tables to stderr, so that its result object is the
	// last line of stdout; a full run prints them to stdout.
	cfg := config{seed: *seed, seconds: *seconds, quick: *quickFlag, outDir: *outDir, log: os.Stdout}
	if *workloadName != "" {
		cfg.log = os.Stderr
	}
	if cfg.seconds <= 0 {
		cfg.seconds = 30
		if cfg.quick {
			cfg.seconds = 1
		}
	}
	fmt.Fprintf(cfg.log, "host: %+v\nseed %d, %g s measured per workload\n", host(), cfg.seed, cfg.seconds)
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runOne(cfg, w, *traced != 0, map[[2]int]*traceSet{})
		if err != nil {
			fatal(err)
		}
		printResult(cfg.log, res)
		// The driver's contract: exactly these keys, as the last line.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rec, err := runAll(cfg)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, "record.json")
	}
	if err := writeRecord(path, rec); err != nil {
		fatal(err)
	}
	fmt.Printf("record: %s\n", path)
	for _, res := range rec.Runs {
		if !res.Correct {
			fatal(fmt.Errorf("%s: correctness gates failed", res.Workload))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// hostFacts go into every record: numbers from different hosts or Go
// versions are not comparable.
type hostFacts struct {
	// NumCPU is the CPUs this process may run on (on Linux, the size of its
	// affinity mask when it started).
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), Platform: goruntime.GOOS + "/" + goruntime.GOARCH, Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// record is what a full run writes and -compare reads.
type record struct {
	Host    hostFacts `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Quick   bool      `json:"quick"`
	Runs    []*result `json:"runs"`
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne generates (or reuses) the workload's trace and does one run.
func runOne(cfg config, w workload, traced bool, traces map[[2]int]*traceSet) (*result, error) {
	if cfg.quick {
		w = quick(w)
	}
	key := [2]int{w.pkts, w.hosts}
	ts := traces[key]
	if ts == nil {
		var err error
		if ts, err = genTrace(w.pkts, w.hosts, cfg.seed); err != nil {
			return nil, err
		}
		traces[key] = ts
		fmt.Fprintf(cfg.log, "trace: %d packets/window over %d hosts, seed %d, generated in %.2f s\n",
			w.pkts, w.hosts, cfg.seed, ts.genS)
	}
	if traced {
		return runTraced(cfg, w, ts)
	}
	return runPlain(cfg, w, ts)
}

// runAll is the full benchmark: every workload, plain then traced, with the
// gate that both runs of a workload saw the same steady-cycle results.
func runAll(cfg config) (*record, error) {
	rec := &record{Host: host(), Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick}
	traces := map[[2]int]*traceSet{}
	for _, w := range workloads {
		if w.workers > rec.Host.NumCPU {
			fmt.Fprintf(cfg.log, "\n%s: skipped, needs %d CPUs and this process has %d\n", w.name, w.workers, rec.Host.NumCPU)
			continue
		}
		plain, err := runOne(cfg, w, false, traces)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		traced, err := runOne(cfg, w, true, traces)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		if strings.Join(plain.Digests, " ") != strings.Join(traced.Digests, " ") {
			traced.Correct = false
			traced.Gates = append(traced.Gates, fmt.Sprintf("traced digests %v differ from the plain run's %v", traced.Digests, plain.Digests))
		}
		printResult(cfg.log, plain)
		printResult(cfg.log, traced)
		rec.Runs = append(rec.Runs, plain, traced)
	}
	return rec, nil
}

// printResult lists every metric of a run by name, with unit and the
// number of windows behind it.
func printResult(w io.Writer, res *result) {
	kind, defs := "plain", endToEnd
	if res.Traced {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n%s (%s, seed %d): %d windows, %d/%d operations failed, correct=%v\n",
		res.Workload, kind, res.Seed, res.Windows, res.Failed, res.Attempted, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.4f %-14s n=%d", d.name, res.Metrics[d.name].Value, d.unit, res.Windows)
		if d.moves != "" {
			fmt.Fprintf(w, "  -> %s", d.moves)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  digests %s\n", strings.Join(res.Digests, " "))
	for _, g := range res.Gates {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", g)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}
