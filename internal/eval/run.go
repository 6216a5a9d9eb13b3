package eval

import (
	"time"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/runtime"
)

// RunResult summarizes one (query set, plan mode, switch config) execution
// over the workload's evaluation windows.
type RunResult struct {
	Mode planner.Mode
	// PerWindow is the stream-processor tuple count per evaluation window —
	// the paper's y-axis.
	PerWindow []uint64
	// Detected collects every key (first result column) reported at the
	// finest level across windows.
	Detected map[uint64]bool
	// Delay is the maximum detection delay across queries, in windows.
	Delay int
	// Collisions counts register overflows across the run.
	Collisions uint64
	// FilterUpdates / UpdateTime accumulate the dynamic-refinement overhead.
	FilterUpdates int
	UpdateTime    time.Duration
	// PlannedN is the planner's trained estimate, for planner-accuracy
	// checks.
	PlannedN uint64
	// ShardBusySum / ShardBusyMax accumulate per-window shard busy time:
	// total work across shards vs the critical path (each window's slowest
	// shard). Their ratio is the run's achievable parallel speedup,
	// independent of the host's core count.
	ShardBusySum time.Duration
	ShardBusyMax time.Duration
}

// SpeedupPotential is the achievable parallel speedup of a sharded run:
// total shard work divided by the critical path (1 for a one-shard run).
func (r *RunResult) SpeedupPotential() float64 {
	if r.ShardBusyMax == 0 {
		return 1
	}
	return float64(r.ShardBusySum) / float64(r.ShardBusyMax)
}

// MeanTuples averages the per-window load.
func (r *RunResult) MeanTuples() float64 {
	if len(r.PerWindow) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range r.PerWindow {
		sum += v
	}
	return float64(sum) / float64(len(r.PerWindow))
}

// Experiment caches training so multiple modes and switch configurations
// reuse it (training depends only on queries and traffic).
type Experiment struct {
	W       *Workload
	Queries []*query.Query
	// Workers shards the window pipeline across this many workers (0 or 1:
	// one shard on the calling goroutine). Results are identical either way;
	// only wall time changes.
	Workers int

	training *planner.TrainingResult
}

// NewExperiment prepares an experiment with the default level menu,
// sharded as the workload's Workers says.
func NewExperiment(w *Workload, qs []*query.Query) *Experiment {
	return &Experiment{W: w, Queries: qs, Workers: w.Workers}
}

// Training trains lazily and caches.
func (e *Experiment) Training() (*planner.TrainingResult, error) {
	if e.training != nil {
		return e.training, nil
	}
	tr, err := planner.Train(e.Queries, planner.DefaultMenu, e.W.TrainingFrames())
	if err != nil {
		return nil, err
	}
	e.training = tr
	return tr, nil
}

// Run plans under the mode and replays the evaluation windows.
func (e *Experiment) Run(cfg pisa.Config, mode planner.Mode) (*RunResult, error) {
	tr, err := e.Training()
	if err != nil {
		return nil, err
	}
	opts := planner.DefaultOptions()
	opts.Mode = mode
	plan, err := planner.PlanQueries(tr, e.Queries, cfg, opts)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: e.Workers})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	res := &RunResult{Mode: mode, Detected: make(map[uint64]bool), PlannedN: plan.ExpectedN()}
	for _, qp := range plan.Queries {
		if d := qp.Delay(); d > res.Delay {
			res.Delay = d
		}
	}
	for _, wi := range e.W.EvalWindowIndices() {
		rep := rt.ProcessWindow(e.W.Frames(wi))
		res.PerWindow = append(res.PerWindow, rep.TuplesToSP)
		res.Collisions += rep.Switch.Collisions
		res.FilterUpdates += rep.FilterUpdates
		res.UpdateTime += rep.UpdateDuration
		var winMax time.Duration
		for _, busy := range rep.ShardBusy {
			res.ShardBusySum += busy
			if busy > winMax {
				winMax = busy
			}
		}
		res.ShardBusyMax += winMax
		for _, r := range rep.Results {
			for _, t := range r.Tuples {
				if len(t) > 0 && !t[0].Str {
					res.Detected[t[0].U] = true
				}
			}
		}
	}
	return res, nil
}

// AllModes runs every Table 4 plan mode.
func (e *Experiment) AllModes(cfg pisa.Config) (map[planner.Mode]*RunResult, error) {
	out := make(map[planner.Mode]*RunResult)
	for _, mode := range Modes {
		res, err := e.Run(cfg, mode)
		if err != nil {
			return nil, err
		}
		out[mode] = res
	}
	return out, nil
}

// Modes lists the emulated systems in presentation order (Table 4).
var Modes = []planner.Mode{
	planner.ModeAllSP,
	planner.ModeFilterDP,
	planner.ModeMaxDP,
	planner.ModeFixRef,
	planner.ModeSonata,
}
