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

// withDelay is tr with every query's own MaxDelay set to d, on clones of
// the queries: the trainings are shared by parallel subtests.
func withDelay(tr *TrainingResult, d int) *TrainingResult {
	c := &TrainingResult{PerQuery: make(map[uint16]*QueryTraining, len(tr.PerQuery)), WindowPackets: tr.WindowPackets}
	for id, qt := range tr.PerQuery {
		cq := *qt
		cq.Query = qt.Query.Clone()
		cq.Query.MaxDelay = d
		c.PerQuery[id] = &cq
	}
	return c
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
// proxies priced from per-edge tier tables, sorted, each mode's cheapest 48
// built — to the reference (plan_ref_test.go), which builds and prices
// every combination: equal candidate lists, order and mode sets included,
// for every oracle query, menu, delay bound, switch and seed, in Sonata's
// planning and, at the default menu, in every restricted mode's.
func TestPathCandidatesMatchReference(t *testing.T) {
	qs := oracleQueries()
	for _, seed := range []int64{1, 2} {
		for mi, menu := range oracleMenus {
			tr := oracleTraining(t, qs, seed, menu)
			t.Run(fmt.Sprintf("seed%d/menu%v", seed, menu), func(t *testing.T) {
				t.Parallel() // each selector only reads the training
				modes := []Mode{ModeSonata}
				if mi == 0 {
					modes = append(modes, ModeAllSP, ModeFilterDP, ModeMaxDP, ModeFixRef)
				}
				overflowed := false
				for ci, cfg := range oracleConfigs() {
					for _, mode := range modes {
						for d := 1; d <= 4; d++ {
							opts, trd := Options{Mode: mode}, withDelay(tr, d)
							sel, err := newSelector(trd, qs, cfg, opts)
							if err != nil {
								t.Fatal(err)
							}
							ref := &refSelector{tr: trd, cfg: cfg, opts: opts}
							for qi, q := range qs {
								want := ref.candidatesFor(trd.PerQuery[q.ID])
								if diff := candidateDiff(sel.cands[qi], want); diff != "" {
									t.Errorf("cfg %d, %v, MaxDelay %d, %s: %s", ci, mode, d, q.Name, diff)
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
// edge's augmented query and pipelines, for Sonata the restricted modes'
// greedies and the swap search, the realized plan — over the same sweep,
// and over every mode at the default menu: equal plans, from each level's
// cuts, instances, register sizes and work estimates to the switch program.
// At the default menu the sweep adds a switch with 2 Kb of metadata; there
// and on the tight switch the search improves on the incumbent.
func TestPlanMatchesReference(t *testing.T) {
	qs := oracleQueries()
	for _, seed := range []int64{1, 2} {
		for mi, menu := range oracleMenus {
			tr := oracleTraining(t, qs, seed, menu)
			t.Run(fmt.Sprintf("seed%d/menu%v", seed, menu), func(t *testing.T) {
				t.Parallel()
				modes, cfgs := []Mode{ModeSonata}, oracleConfigs()
				if mi == 0 {
					modes = append(modes, ModeAllSP, ModeFilterDP, ModeMaxDP, ModeFixRef)
					meta := pisa.DefaultConfig()
					meta.MetadataBits = 2048
					cfgs = append(cfgs, meta)
				}
				for ci, cfg := range cfgs {
					for _, mode := range modes {
						for d := 1; d <= 4; d++ {
							opts, trd := Options{Mode: mode}, withDelay(tr, d)
							got, err := PlanQueries(trd, qs, cfg, opts)
							if err != nil {
								t.Fatal(err)
							}
							want, err := refPlanQueries(trd, qs, cfg, opts)
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
					wq.Query.Name, w.Level, g.Prev, g.Left.CutAt, g.Left.RegEntries, g.EstWork, g.ExpectedN,
					w.Prev, w.Left.CutAt, w.Left.RegEntries, w.EstWork, w.ExpectedN)
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

// TestCandidateResourcesMatchProgram: the footprint the swap search prunes
// moves by is what buildProgram places for a candidate — stateful tables,
// register bits and metadata bits summed over the placed instances, and the
// longest instance cut — for every candidate of every oracle query,
// gate-only levels included, on a switch roomy enough to place them all. So
// the prune, which drops a move only when that footprint exceeds the
// switch's totals or a cut its stages, drops none that places.
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
				var st, meta, cut int
				var bits int64
				for _, spec := range prog.Instances {
					cut = max(cut, spec.CutAt)
					for tb := 0; tb < spec.CutAt; tb++ {
						if tab := &spec.Tables[tb]; tab.Stateful {
							st++
							bits += pisa.RegisterBits(spec.RegEntries[tb], cfg.RegisterChains, tab.KeyBits, tab.ValBits)
						}
					}
					meta += spec.MetaBits()
				}
				g := sel.candidateResources(0, c)
				if g != (footprint{st, bits, meta, cut}) {
					t.Errorf("%s candidate %v %v: resources %+v, placed %d/%d/%d, cut %d",
						q.Name, c.path, c.cuts, g, st, bits, meta, cut)
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

// TestKeptProxiesAreEachModesCheapest holds the bounded per-mode selection
// candidates keeps to sorting everything: over random proxies whose costs
// and depths tie in crowds around the 48th place, offered in random order,
// the kept list must be sorted and hold each planning mode's first
// maxCandidates proxies of the full order, first among that mode's, and
// every All-SP proxy.
func TestKeptProxiesAreEachModesCheapest(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := &selector{}
	for trial := 0; trial < 400; trial++ {
		n := []int{1, 47, 48, 49, 97, 300, 2000}[trial%7]
		costs, depths := 1+r.Intn(6), 1+r.Intn(4)
		all := make([]proxy, n)
		for i := range all {
			all[i] = proxy{cost: uint64(r.Intn(costs)), depth: int32(r.Intn(depths)),
				path: int32(i % 7), combo: int32(i / 7), modes: uint8(r.Intn(1<<(ModeFixRef+1))) | 1<<ModeSonata}
		}
		planning := uint8(0xff)
		if m := r.Intn(int(ModeFixRef) + 2); m <= int(ModeFixRef) {
			planning = 1 << m
		}
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, p := range all {
			if p.modes&planning != 0 {
				s.offer(p, planning)
			}
		}
		kept := s.kept(nil)

		if !slices.IsSortedFunc(kept, compareProxies) {
			t.Fatalf("trial %d: kept proxies are not sorted", trial)
		}
		for i := 1; i < len(kept); i++ {
			if compareProxies(kept[i-1], kept[i]) == 0 {
				t.Fatalf("trial %d: proxy %+v kept twice", trial, kept[i])
			}
		}
		slices.SortFunc(all, compareProxies)
		first := func(ps []proxy, m int) []proxy {
			var out []proxy
			for _, p := range ps {
				if p.modes&planning&(1<<m) != 0 && len(out) < maxCandidates {
					out = append(out, p)
				}
			}
			return out
		}
		for m := range s.cheapest {
			if got, want := first(kept, m), first(all, m); !slices.Equal(got, want) {
				t.Fatalf("trial %d (n %d, planning %#x): mode %v keeps\n%v\nwant\n%v", trial, n, planning, Mode(m), got, want)
			}
		}
		for _, p := range all {
			if p.modes&planning != 0 && p.modes&(1<<ModeAllSP) != 0 && !slices.Contains(kept, p) {
				t.Fatalf("trial %d: All-SP proxy %+v dropped", trial, p)
			}
		}
	}
}
