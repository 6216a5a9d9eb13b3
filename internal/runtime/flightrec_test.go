package runtime_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// recordCounts renders one committed window's records into a canonical
// per-(query, level) string, the flight-recorder side of the differential.
func recordCounts(recs []flightrec.Record) string {
	sorted := append([]flightrec.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].QID != sorted[j].QID {
			return sorted[i].QID < sorted[j].QID
		}
		return sorted[i].Level < sorted[j].Level
	})
	var b strings.Builder
	for _, r := range sorted {
		if r.TuplesToSP == 0 {
			// Idle instances carry no load to compare; drop zeros from both
			// renderings.
			continue
		}
		fmt.Fprintf(&b, "q%d/%d=%d\n", r.QID, r.Level, r.TuplesToSP)
	}
	return b.String()
}

// perQueryCounts renders a window report's per-instance tuple counts the
// same way.
func perQueryCounts(rep *runtime.WindowReport) string {
	counts := slices.Clone(rep.Instances)
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].QID != counts[j].QID {
			return counts[i].QID < counts[j].QID
		}
		return counts[i].Level < counts[j].Level
	})
	var b strings.Builder
	for _, c := range counts {
		if c.TuplesToSP == 0 {
			continue
		}
		fmt.Fprintf(&b, "q%d/%d=%d\n", c.QID, c.Level, c.TuplesToSP)
	}
	return b.String()
}

// TestFlightRecMatchesReports is the recorder's differential contract: at
// every worker count, each committed window's per-(query, level) tuple
// counts must equal the sequential runtime's WindowReport.Instances, and the
// summed switch-side counters must equal the report's WindowStats. The
// recorder copies the report's records, so any divergence means a count was
// dropped or double-counted on the way.
func TestFlightRecMatchesReports(t *testing.T) {
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.All(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	plan, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Sequential baseline: the per-window tuple counts every worker
	// count's recorder must reproduce.
	var want []string
	{
		rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w.Gen.Windows(); i++ {
			want = append(want, perQueryCounts(rt.ProcessWindow(w.Frames(i))))
		}
	}

	for _, workers := range []int{0, 1, 2, 8} {
		rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rec := flightrec.New(2*w.Gen.Windows(), nil)
		rt.AttachFlightRecorder(rec)
		for i := 0; i < w.Gen.Windows(); i++ {
			rep := rt.ProcessWindow(w.Frames(i))
			s := rec.Snapshot(0)
			if s.Window != rep.Index {
				t.Fatalf("workers=%d: snapshot window %d after report %d", workers, s.Window, rep.Index)
			}
			got := recordCounts(s.Queries)
			if got != want[i] {
				t.Errorf("workers=%d window %d: recorder tuple counts diverge from sequential report\n--- recorder\n%s--- sequential\n%s",
					workers, i, got, want[i])
			}
			// Switch-side counters: summing the records must reproduce the
			// window's WindowStats exactly, at every worker count.
			var tuples, mirrored, collisions, dumps, mirrorBytes, results uint64
			for _, r := range s.Queries {
				tuples += r.TuplesToSP
				mirrored += r.Mirrored
				collisions += r.Collisions
				dumps += r.DumpTuples
				mirrorBytes += r.MirrorBytes
				results += r.Results
				if r.PacketsIn != rep.Switch.PacketsIn {
					t.Errorf("workers=%d window %d q%d/%d: packetsIn %d, report %d",
						workers, i, r.QID, r.Level, r.PacketsIn, rep.Switch.PacketsIn)
				}
			}
			if tuples != rep.TuplesToSP {
				t.Errorf("workers=%d window %d: recorder tuples %d, report %d", workers, i, tuples, rep.TuplesToSP)
			}
			if mirrored != rep.Switch.Mirrored || collisions != rep.Switch.Collisions || dumps != rep.Switch.DumpTuples {
				t.Errorf("workers=%d window %d: recorder switch counters %d/%d/%d, report %d/%d/%d",
					workers, i, mirrored, collisions, dumps,
					rep.Switch.Mirrored, rep.Switch.Collisions, rep.Switch.DumpTuples)
			}
			if mirrored > 0 && mirrorBytes == 0 {
				t.Errorf("workers=%d window %d: %d mirrors but no bytes attributed", workers, i, mirrored)
			}
			var reported uint64
			for _, res := range rep.AllResults {
				reported += uint64(len(res.Tuples))
			}
			if results != reported {
				t.Errorf("workers=%d window %d: recorder results %d, report %d", workers, i, results, reported)
			}
		}
	}
}

// TestFlightRecBusyAttribution: on a sharded runtime, busy time attributed
// to instances must stay within each window's total shard busy time.
func TestFlightRecBusyAttribution(t *testing.T) {
	g, train := buildFloodTrace(t, 6000, 6, 0)
	qs := queries.TopEight(eval.ScaledParams(eval.SmallScale()))
	cfg := pisa.DefaultConfig()
	plan := planAll(t, qs, train, cfg)
	rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := flightrec.New(8, nil)
	rt.AttachFlightRecorder(rec)
	sawBusy := false
	for i := 0; i < g.Windows(); i++ {
		rep := rt.ProcessWindow(framesWin(g, i))
		var total time.Duration
		for _, b := range rep.ShardBusy {
			total += b
		}
		var attributed int64
		for _, r := range rec.Snapshot(0).Queries {
			if r.BusyNS < 0 {
				t.Fatalf("window %d: negative busy %d", i, r.BusyNS)
			}
			attributed += r.BusyNS
		}
		if attributed > total.Nanoseconds() {
			t.Errorf("window %d: attributed %dns exceeds shard busy %dns", i, attributed, total.Nanoseconds())
		}
		if attributed > 0 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Error("no window attributed any busy time on a sharded runtime")
	}
}

// TestFlightRecDriftDetectsPlanStaleness trains the planner on calm
// background traffic, then replays windows where a SYN flood starts after
// training. The flood's extra work is invisible to EstWork (trained
// pre-flood), so the drift ratio of the flood-facing query must climb above
// 1 while it sat near 1 on the calm windows — exactly the signal an
// operator uses to decide the plan is stale.
func TestFlightRecDriftDetectsPlanStaleness(t *testing.T) {
	const windows = 8
	// Flood begins at window 4; windows 0-1 train, 2-3 replay calm.
	g, train := buildFloodTrace(t, 6000, windows, 4)
	qs := []*query.Query{floodQuery(100)}
	cfg := pisa.DefaultConfig()
	plan := planAll(t, qs, train, cfg)
	rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := flightrec.New(windows, nil)
	rt.AttachFlightRecorder(rec)

	maxAt := func(s flightrec.Snapshot) float64 {
		var max float64
		for _, r := range s.Queries {
			if r.Drift > max {
				max = r.Drift
			}
		}
		return max
	}
	var calm, flooded float64
	for i := 2; i < windows; i++ {
		rt.ProcessWindow(framesWin(g, i))
		d := maxAt(rec.Snapshot(0))
		if i == 3 {
			calm = d
		}
		if d > flooded {
			flooded = d
		}
	}
	if calm > 1.5 {
		t.Errorf("calm-window drift %.2f, want near 1 (plan freshly trained)", calm)
	}
	if flooded < 1.2 {
		t.Errorf("max drift %.2f after flood onset, want > 1.2 (plan visibly stale)", flooded)
	}
	if flooded <= calm {
		t.Errorf("drift did not move: calm %.2f, flooded %.2f", calm, flooded)
	}
}

// TestMetricsLint instruments a full deployment — runtime (switch, stream,
// emitter), flight recorder — into one registry and runs the metric-naming
// lint over it. `make check-metrics` runs it beside TestObserverGolden.
func TestMetricsLint(t *testing.T) {
	g, train := buildFloodTrace(t, 4000, 4, 0)
	qs := queries.TopEight(eval.ScaledParams(eval.SmallScale()))
	cfg := pisa.DefaultConfig()
	plan := planAll(t, qs, train, cfg)
	rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tz := tracez.New(tracez.Options{})
	tz.Instrument(reg)
	rt.Instrument(reg, tz)
	rec := flightrec.New(4, nil)
	rec.Instrument(reg)
	rec.AttachTraceIndex(tz.Has)
	rt.AttachFlightRecorder(rec)
	rt.ProcessWindow(framesWin(g, 2))
	for _, problem := range reg.Lint() {
		t.Errorf("metric lint: %s", problem)
	}
	// The prescreen's two ends are exported per shard, and the
	// deployment goes through it: frames are offered, and fewer get in.
	counters := reg.Snapshot().Counters
	var offered, entered uint64
	for _, shard := range []string{"0", "1"} {
		f, okF := counters[`sonata_pisa_prescreen_frames_total{shard="`+shard+`"}`]
		e, okE := counters[`sonata_pisa_prescreen_entered_total{shard="`+shard+`"}`]
		if !okF || !okE {
			t.Fatalf("shard %s exports no prescreen counters", shard)
		}
		offered, entered = offered+f, entered+e
	}
	if offered == 0 || entered == 0 || entered >= offered {
		t.Errorf("prescreen offered %d frames and let in %d; want 0 < entered < offered", offered, entered)
	}
	// The mirror boundary's amortisation is exported: hand-offs and deep
	// decodes, neither of which can exceed the frames they carried (this
	// window's plan keeps most of them on the switch).
	frames := counters["sonata_emitter_frames_total"]
	batches, okB := counters["sonata_emitter_batches_total"]
	decodes, okD := counters["sonata_emitter_deep_decodes_total"]
	if !okB || !okD || batches > frames || decodes > frames || (frames > 0) != (batches > 0) {
		t.Errorf("emitter: %d frames in %d batches (exported: %v), %d deep decodes (exported: %v)",
			frames, batches, okB, decodes, okD)
	}
}

// buildFloodTrace generates a deterministic trace whose SYN flood starts at
// window floodStart (0 floods the whole trace) and returns two training
// windows. With floodStart >= 2 the training windows see only background
// traffic, so the trained plan underestimates flood-window work.
func buildFloodTrace(t *testing.T, pkts, windows, floodStart int) (*trace.Generator, []planner.Frames) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = pkts
	cfg.Windows = windows
	cfg.Hosts = 600
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Duration(floodStart) * cfg.Window
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 64, pkts/4, start, g.Duration()))
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		train = append(train, planner.Frames(framesWin(g, i)))
	}
	return g, train
}

func framesWin(g *trace.Generator, i int) [][]byte {
	w := g.WindowRecords(i)
	frames := make([][]byte, len(w.Records))
	for j, r := range w.Records {
		frames[j] = r.Data
	}
	return frames
}

func floodQuery(th uint64) *query.Query {
	q := query.NewBuilder("newly_opened_tcp_conns", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, th)).
		MustBuild()
	q.ID = 1
	return q
}

func planAll(t *testing.T, qs []*query.Query, train []planner.Frames, cfg pisa.Config) *planner.Plan {
	t.Helper()
	tr, err := planner.Train(qs, []int{8, 16, 24}, train)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
