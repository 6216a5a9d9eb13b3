package planner

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pisa"
	"repro/internal/queries"
	"repro/internal/query"
)

// randomSwitches is TestPlansAlwaysFitRandomSwitches' setting: its three
// queries trained on its windows, and its 25 random switches, drawn from
// the same seed in the same order.
func randomSwitches(t *testing.T) (*TrainingResult, []*query.Query, []pisa.Config) {
	t.Helper()
	windows := trainingWindows(t, 1, 4000)
	p := queries.DefaultParams()
	qs := []*query.Query{q1(100), queries.Superspreader(p), queries.SlowlorisAttacks(p)}
	for i, q := range qs {
		q.ID = uint16(i + 1)
	}
	tr, err := Train(qs, []int{8, 16}, windows)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	cfgs := make([]pisa.Config, 25)
	for i := range cfgs {
		cfgs[i] = pisa.Config{
			Stages:               1 + r.Intn(32),
			StatefulPerStage:     r.Intn(9),
			StatelessPerStage:    8 + r.Intn(120),
			RegisterBitsPerStage: int64(1+r.Intn(64)) << 17,
			MetadataBits:         128 + r.Intn(8<<10),
			RegisterChains:       1 + r.Intn(4),
		}
		cfgs[i].MaxRegisterBitsPerOp = cfgs[i].RegisterBitsPerStage / int64(1+r.Intn(2))
	}
	return tr, qs, cfgs
}

// placeMatchesPlacer holds pisa.Program.Place to the first-fit placer it
// replaced plus Validate (refPlace) over trial programs of Sonata's plan
// selection on cfg: each query's every candidate swapped into the All-SP
// choice, as the greedy's first round tries them, and random choices across
// the queries, which contend for stages. Both must accept the same programs
// with the same stages, and every program Place accepts must pass Validate
// as placed. It returns how many programs were accepted and rejected.
func placeMatchesPlacer(t *testing.T, tr *TrainingResult, qs []*query.Query, cfg pisa.Config, random int) (accepted, rejected int) {
	t.Helper()
	s, err := newSelector(tr, qs, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	allSP := make([]int, len(qs))
	for qi := range allSP {
		allSP[qi] = slices.IndexFunc(s.cands[qi], func(c candidate) bool {
			return len(c.path) == 1 && c.cuts[0] == [2]int{}
		})
	}
	var choices [][]int
	for qi := range qs {
		for ci := range s.cands[qi] {
			choice := slices.Clone(allSP)
			choice[qi] = ci
			choices = append(choices, choice)
		}
	}
	r := rand.New(rand.NewSource(1))
	for range random {
		choice := make([]int, len(qs))
		for qi := range choice {
			choice[qi] = r.Intn(len(s.cands[qi]))
		}
		choices = append(choices, choice)
	}
	for _, choice := range choices {
		want := s.program(choice)
		wantErr := refPlace(want, cfg)
		got := s.program(choice)
		if err := got.Place(cfg); (err == nil) != (wantErr == nil) {
			t.Fatalf("choice %v: Place = %v, reference placer and Validate = %v", choice, err, wantErr)
		} else if err != nil {
			rejected++
			continue
		}
		accepted++
		for i, inst := range got.Instances {
			if !slices.Equal(inst.StageOf, want.Instances[i].StageOf) {
				t.Fatalf("choice %v: %s placed in stages %v, reference %v",
					choice, inst.Name(), inst.StageOf, want.Instances[i].StageOf)
			}
		}
		if err := got.Validate(cfg); err != nil {
			t.Fatalf("choice %v: Validate refuses Place's program: %v", choice, err)
		}
	}
	return accepted, rejected
}
