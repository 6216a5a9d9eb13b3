package core

import (
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/trace"
)

func synFloodWorkload(t *testing.T) (*trace.Generator, []planner.Frames) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 4000
	cfg.Windows = 4
	cfg.Hosts = 400
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.AddAttack(trace.NewSYNFlood(trace.StandardVictim, 32, 300, 0, g.Duration()))
	var train []planner.Frames
	for i := 0; i < 2; i++ {
		w := g.WindowRecords(i)
		f := make(planner.Frames, len(w.Records))
		for j, r := range w.Records {
			f[j] = r.Data
		}
		train = append(train, f)
	}
	return g, train
}

func q1() *query.Query {
	return query.NewBuilder("q1", 3*time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 100)).
		MustBuild()
}

func TestFacadeLifecycle(t *testing.T) {
	g, train := synFloodWorkload(t)
	s := New(Config{})
	s.Register(q1())
	if got := s.Queries()[0].ID; got != 1 {
		t.Errorf("auto-assigned ID = %d", got)
	}
	if _, err := s.Plan(); err == nil {
		t.Error("Plan before Train succeeded")
	}
	if err := s.Train(train); err != nil {
		t.Fatal(err)
	}
	plan1, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	plan2, _ := s.Plan()
	if plan1 != plan2 {
		t.Error("Plan not cached")
	}
	rt, err := s.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	w := g.WindowRecords(2)
	frames := make([][]byte, len(w.Records))
	for i, r := range w.Records {
		frames[i] = r.Data
	}
	rep := rt.ProcessWindow(frames)
	found := false
	for _, res := range rep.Results {
		for _, tup := range res.Tuples {
			if tup[0].U == uint64(trace.StandardVictim) {
				found = true
			}
		}
	}
	if !found {
		t.Error("victim not detected through the façade")
	}
}

func TestFacadeValidation(t *testing.T) {
	s := New(Config{})
	if err := s.Train(nil); err == nil {
		t.Error("Train with no queries succeeded")
	}
	s.Register(q1())
	if err := s.Train(nil); err == nil {
		t.Error("Train with no windows succeeded")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Switch.Stages == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.Planner.MaxDelay == 0 {
		t.Errorf("planner defaults not applied: %+v", c.Planner)
	}
}

func TestRetrainInvalidatesPlan(t *testing.T) {
	_, train := synFloodWorkload(t)
	s := New(Config{})
	s.Register(q1())
	if err := s.Train(train); err != nil {
		t.Fatal(err)
	}
	p1, _ := s.Plan()
	if err := s.Train(train); err != nil {
		t.Fatal(err)
	}
	p2, _ := s.Plan()
	if p1 == p2 {
		t.Error("re-training did not invalidate the cached plan")
	}
}
