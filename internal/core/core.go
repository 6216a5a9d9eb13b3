// Package core is Sonata's public façade: register queries written with the
// query builder, train the planner on historical traffic, and deploy the
// resulting plan onto a switch and stream processor pair.
//
// Typical use:
//
//	s := core.New(core.Config{})
//	s.Register(queries.NewlyOpenedTCPConns(queries.DefaultParams()))
//	if err := s.Train(trainingWindows); err != nil { ... }
//	rt, err := s.Deploy()
//	for each window { rep := rt.ProcessWindow(frames); use rep.Results }
package core

import (
	"fmt"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/runtime"
)

// Config parameterizes a deployment.
type Config struct {
	// Switch holds the data-plane resource constraints; zero means
	// pisa.DefaultConfig().
	Switch pisa.Config
	// Planner holds plan-selection options; zero means
	// planner.DefaultOptions().
	Planner planner.Options
	// Workers shards the deployed window pipeline across this many workers;
	// 0 or 1 deploys one shard on the calling goroutine. Reports are
	// identical either way; only wall time changes.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Switch.Stages == 0 {
		c.Switch = pisa.DefaultConfig()
	}
	if c.Planner.MaxDelay == 0 && c.Planner.ILPBudget == 0 {
		c.Planner = planner.DefaultOptions()
	}
	return c
}

// Sonata holds registered queries and training state.
type Sonata struct {
	cfg      Config
	queries  []*query.Query
	training *planner.TrainingResult
	plan     *planner.Plan
}

// New returns a Sonata instance.
func New(cfg Config) *Sonata {
	return &Sonata{cfg: cfg.withDefaults()}
}

// Register adds a query. Queries without IDs are numbered in registration
// order starting at 1.
func (s *Sonata) Register(q *query.Query) *Sonata {
	if q.ID == 0 {
		q.ID = uint16(len(s.queries) + 1)
	}
	s.queries = append(s.queries, q)
	return s
}

// Queries returns the registered queries.
func (s *Sonata) Queries() []*query.Query { return s.queries }

// Train profiles the registered queries over historical windows, deriving
// refinement ladders, relaxed thresholds, and workload costs.
func (s *Sonata) Train(windows []planner.Frames) error {
	if len(s.queries) == 0 {
		return fmt.Errorf("core: no queries registered")
	}
	tr, err := planner.Train(s.queries, planner.DefaultMenu, windows)
	if err != nil {
		return err
	}
	s.training = tr
	s.plan = nil
	return nil
}

// Training exposes the training result (the evaluation harness reuses it
// across plan modes).
func (s *Sonata) Training() *planner.TrainingResult { return s.training }

// Plan runs the query planner, returning (and caching) the joint
// partitioning and refinement plan.
func (s *Sonata) Plan() (*planner.Plan, error) {
	if s.training == nil {
		return nil, fmt.Errorf("core: Train must run before Plan")
	}
	if s.plan != nil {
		return s.plan, nil
	}
	plan, err := planner.PlanQueries(s.training, s.queries, s.cfg.Switch, s.cfg.Planner)
	if err != nil {
		return nil, err
	}
	s.plan = plan
	return plan, nil
}

// Deploy builds the runtime: the switch program installed on the simulator
// and every pipeline suffix installed on the stream engine.
func (s *Sonata) Deploy() (*runtime.Runtime, error) {
	plan, err := s.Plan()
	if err != nil {
		return nil, err
	}
	return runtime.NewWithOptions(plan, s.cfg.Switch,
		runtime.Options{Workers: s.cfg.Workers})
}
