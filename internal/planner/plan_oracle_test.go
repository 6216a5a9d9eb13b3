package planner

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/pisa"
	"repro/internal/query"
)

// oracleMenus are the level menus the oracle tests sweep: the repo's
// default, two shorter ladders and the paper's.
var oracleMenus = [][]int{{8, 16, 24}, {8, 16}, {16, 24}, {4, 8, 12, 16, 20, 24, 28}}

var oracleTrained = struct {
	sync.Mutex
	windows map[int64][]Frames
	results map[string]*TrainingResult
}{windows: map[int64][]Frames{}, results: map[string]*TrainingResult{}}

// oracleTraining trains oracleQueries() on oracleWindows(seed) under the
// menu, once per test binary.
func oracleTraining(t *testing.T, qs []*query.Query, seed int64, menu []int) *TrainingResult {
	t.Helper()
	oracleTrained.Lock()
	defer oracleTrained.Unlock()
	key := fmt.Sprint(seed, menu)
	if tr := oracleTrained.results[key]; tr != nil {
		return tr
	}
	if oracleTrained.windows[seed] == nil {
		oracleTrained.windows[seed] = oracleWindows(t, seed)
	}
	tr, err := Train(qs, menu, oracleTrained.windows[seed])
	if err != nil {
		t.Fatal(err)
	}
	oracleTrained.results[key] = tr
	return tr
}

// oracleConfigs are the default switch and a tight one, whose one-bank
// 256-entry registers overflow on the oracle windows' keys and whose few
// stateful slots stop most candidates from packing.
func oracleConfigs() []pisa.Config {
	tight := pisa.DefaultConfig()
	tight.Stages = 6
	tight.StatefulPerStage = 1
	tight.RegisterChains = 1
	tight.RegisterBitsPerStage = 1 << 15
	tight.MaxRegisterBitsPerOp = 1 << 14
	return []pisa.Config{pisa.DefaultConfig(), tight}
}

// TestPathCandidatesMatchReference holds candidate generation — index
// proxies priced from per-edge tier tables, sorted, the cheapest 48 built —
// to the reference (plan_ref_test.go), which builds and prices every
// combination: equal candidate lists, order included, for every oracle
// query, menu, delay bound, switch and seed.
func TestPathCandidatesMatchReference(t *testing.T) {
	qs := oracleQueries()
	for _, seed := range []int64{1, 2} {
		for _, menu := range oracleMenus {
			tr := oracleTraining(t, qs, seed, menu)
			t.Run(fmt.Sprintf("seed%d/menu%v", seed, menu), func(t *testing.T) {
				t.Parallel() // each selector only reads the training
				overflowed := false
				for ci, cfg := range oracleConfigs() {
					for d := 1; d <= 4; d++ {
						opts := DefaultOptions()
						opts.MaxDelay = d
						sel, err := newSelector(tr, qs, cfg, opts)
						if err != nil {
							t.Fatal(err)
						}
						ref := &refSelector{tr: tr, cfg: cfg, opts: opts}
						for qi, q := range qs {
							want := ref.candidatesFor(tr.PerQuery[q.ID])
							if diff := candidateDiff(sel.cands[qi], want); diff != "" {
								t.Errorf("cfg %d, MaxDelay %d, %s: %s", ci, d, q.Name, diff)
							}
						}
						for _, edges := range sel.edges {
							for _, e := range edges {
								for _, tiers := range e.tiers {
									for _, p := range tiers {
										overflowed = overflowed || p.overflow > 0
									}
								}
							}
						}
					}
				}
				// The overflow term must be priced somewhere, or the tight
				// switch compares nothing the default one does not.
				if !overflowed {
					t.Error("no priced tier overflows its registers")
				}
			})
		}
	}
}

// candidateDiff describes the first difference between two candidate lists.
func candidateDiff(got, want []candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, reference %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("candidate %d = %v %v cost %d, reference %v %v cost %d",
				i, got[i].path, got[i].cuts, got[i].cost, want[i].path, want[i].cuts, want[i].cost)
		}
	}
	return ""
}

// TestPlanMatchesReference holds PlanQueries to the reference selector end
// to end — candidates, greedy packing over trial programs that reuse each
// edge's augmented query and pipelines, the realized plan — over the same
// sweep, and over every mode at the default menu: equal plans, from each
// level's cuts, instances, register sizes and work estimates to the switch
// program.
func TestPlanMatchesReference(t *testing.T) {
	qs := oracleQueries()
	for _, seed := range []int64{1, 2} {
		for mi, menu := range oracleMenus {
			tr := oracleTraining(t, qs, seed, menu)
			t.Run(fmt.Sprintf("seed%d/menu%v", seed, menu), func(t *testing.T) {
				t.Parallel()
				modes := []Mode{ModeSonata}
				if mi == 0 {
					modes = append(modes, ModeAllSP, ModeFilterDP, ModeMaxDP, ModeFixRef)
				}
				for ci, cfg := range oracleConfigs() {
					for _, mode := range modes {
						for d := 1; d <= 4; d++ {
							opts := DefaultOptions()
							opts.Mode, opts.MaxDelay = mode, d
							got, err := PlanQueries(tr, qs, cfg, opts)
							if err != nil {
								t.Fatal(err)
							}
							want, err := refPlanQueries(tr, qs, cfg, opts)
							if err != nil {
								t.Fatal(err)
							}
							if diff := planDiff(got, want); diff != "" {
								t.Errorf("cfg %d, %v, MaxDelay %d: %s", ci, mode, d, diff)
							}
						}
					}
				}
			})
		}
	}
}

// planDiff describes the first difference between two plans.
func planDiff(got, want *Plan) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	for qi, wq := range want.Queries {
		gq := got.Queries[qi]
		if len(gq.Levels) != len(wq.Levels) {
			return fmt.Sprintf("%s: %d levels, reference %d", wq.Query.Name, len(gq.Levels), len(wq.Levels))
		}
		for li := range wq.Levels {
			g, w := &gq.Levels[li], &wq.Levels[li]
			if !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("%s level %d: prev %d cut %d regs %v work %d N %d, reference prev %d cut %d regs %v work %d N %d",
					wq.Query.Name, w.Level, g.Prev, g.Left.Cut, g.Left.RegEntries, g.Left.EstWork, g.ExpectedN,
					w.Prev, w.Left.Cut, w.Left.RegEntries, w.Left.EstWork, w.ExpectedN)
			}
		}
	}
	if len(got.Program.Instances) != len(want.Program.Instances) {
		return fmt.Sprintf("%d instances, reference %d", len(got.Program.Instances), len(want.Program.Instances))
	}
	for i, w := range want.Program.Instances {
		if g := got.Program.Instances[i]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("instance %d: %s cut %d stages %v, reference %s cut %d stages %v",
				i, g.Name(), g.CutAt, g.StageOf, w.Name(), w.CutAt, w.StageOf)
		}
	}
	return "plans differ"
}

// TestCandidateResourcesMatchProgram: the footprint the ILP charges a
// candidate is what buildProgram places for it — stateful tables, register
// bits and metadata bits summed over the placed instances — for every
// candidate of every oracle query, gate-only levels included, on a switch
// roomy enough to place them all.
func TestCandidateResourcesMatchProgram(t *testing.T) {
	qs := oracleQueries()
	cfg := pisa.DefaultConfig()
	cfg.Stages, cfg.StatefulPerStage, cfg.StatelessPerStage = 64, 64, 1024
	cfg.RegisterBitsPerStage, cfg.MetadataBits = 1<<40, 1<<30
	gateLevels := 0
	for _, menu := range [][]int{{8, 16, 24}, {16, 24}} {
		tr := oracleTraining(t, qs, 1, menu)
		for _, q := range qs {
			sel, err := newSelector(tr, []*query.Query{q}, cfg, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			qt := sel.queries[0]
			for ci := range sel.cands[0] {
				c := &sel.cands[0][ci]
				prog, err := sel.buildProgram([]int{ci})
				if err != nil {
					t.Fatalf("%s candidate %v %v: %v", q.Name, c.path, c.cuts, err)
				}
				var st int
				var bits int64
				var meta int
				for _, spec := range prog.Instances {
					for tb := 0; tb < spec.CutAt; tb++ {
						if tab := &spec.Tables[tb]; tab.Stateful {
							st++
							bits += pisa.RegisterBits(spec.RegEntries[tb], cfg.RegisterChains, tab.KeyBits, tab.ValBits)
						}
					}
					meta += spec.MetaBits()
				}
				gst, gbits, gmeta := sel.candidateResources(0, c)
				if gst != st || gbits != bits || gmeta != meta {
					t.Errorf("%s candidate %v %v: resources %d/%d/%d, placed %d/%d/%d",
						q.Name, c.path, c.cuts, gst, gbits, gmeta, st, bits, meta)
				}
				for i := range c.path {
					if gateOnly(qt, c.path, i) && c.cuts[i][0] > 0 {
						gateLevels++
					}
				}
			}
		}
	}
	// Gate-only levels whose unplaced left side has a cut are where a
	// footprint that charged the left side would differ.
	if gateLevels == 0 {
		t.Error("no candidate has a gate-only level with a left cut")
	}
}

// TestCutTiersAndPathsAreDistinct is what lets candidate generation skip
// deduplication: paths yields each level chain once, and cutTiers each cut
// once, so every (path, tier-pair combination) is a distinct candidate.
func TestCutTiersAndPathsAreDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	binom := func(n, k int) int {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	for trial := 0; trial < 300; trial++ {
		var levels []int
		for l := 1; l < 32; l++ {
			if r.Intn(4) == 0 {
				levels = append(levels, l)
			}
		}
		levels = append(levels, 32)
		qt := &QueryTraining{Query: &query.Query{MaxDelay: r.Intn(6)}, Levels: levels}
		maxDelay := r.Intn(7)
		bound := max(maxDelay, 1)
		if qt.Query.MaxDelay > 0 && qt.Query.MaxDelay < bound {
			bound = qt.Query.MaxDelay
		}
		ps := paths(qt, maxDelay)
		seen := map[string]bool{}
		for _, p := range ps {
			k := fmt.Sprint(p)
			if seen[k] {
				t.Fatalf("levels %v, delay %d/%d: path %v twice", levels, maxDelay, qt.Query.MaxDelay, p)
			}
			seen[k] = true
			if len(p) > bound || p[len(p)-1] != 32 || !slices.IsSorted(p) || len(slices.Compact(slices.Clone(p))) != len(p) {
				t.Fatalf("levels %v, bound %d: bad path %v", levels, bound, p)
			}
		}
		want := 0
		for k := 0; k < bound; k++ {
			want += binom(len(levels)-1, k)
		}
		if len(ps) != want {
			t.Fatalf("levels %v, bound %d: %d paths, want %d", levels, bound, len(ps), want)
		}
	}

	if got := cutTiers(nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("cutTiers(nil) = %v, want [0]", got)
	}
	tr := oracleTraining(t, oracleQueries(), 1, oracleMenus[0])
	sides := 0
	for _, qt := range tr.PerQuery {
		for _, e := range qt.Edges {
			for _, sc := range []*SideCost{e.Left, e.Right} {
				if sc == nil {
					continue
				}
				// Every capability prefix of the real pipeline, so each tier
				// coincidence (max = lean, lean = 0, max = 0) occurs.
				for cp := 0; cp <= len(sc.Pipe.Tables); cp++ {
					v := *sc
					v.Pipe.CapPrefix = cp
					v.Cuts = v.Pipe.ValidPartitionPoints()
					tiers := cutTiers(&v)
					if len(uniq(tiers)) != len(tiers) {
						t.Fatalf("%s edge {%d,%d}, prefix %d: tiers %v repeat", qt.Query.Name, e.Prev, e.Level, cp, tiers)
					}
					for _, c := range tiers {
						if !slices.Contains(v.Cuts, c) {
							t.Fatalf("%s edge {%d,%d}, prefix %d: tier %d is not a valid cut %v", qt.Query.Name, e.Prev, e.Level, cp, c, v.Cuts)
						}
					}
					sides++
				}
			}
		}
	}
	if sides == 0 {
		t.Fatal("no side checked")
	}
}

func uniq(xs []int) map[int]bool {
	m := map[int]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}
