package core

import (
	"fmt"

	"repro/internal/planner"
	"repro/internal/runtime"
)

// AdaptiveRuntime wraps a deployment with the paper's re-planning loop
// (Section 3.3 / Section 5): register collisions signal that live traffic
// holds many more unique keys than the training data predicted; when the
// collision rate passes a threshold, the runtime re-trains the planner on
// the most recent windows and redeploys with freshly sized registers and a
// new plan.
type AdaptiveRuntime struct {
	s         *Sonata
	rt        *runtime.Runtime
	threshold float64
	keep      int
	recent    []planner.Frames
	replans   int
}

// DeployAdaptive deploys the current plan and arms re-planning: when the
// cumulative collision rate exceeds threshold, the planner re-trains on the
// last keepWindows processed windows.
func (s *Sonata) DeployAdaptive(threshold float64, keepWindows int) (*AdaptiveRuntime, error) {
	if threshold <= 0 {
		threshold = 0.01
	}
	if keepWindows <= 0 {
		keepWindows = 2
	}
	rt, err := s.Deploy()
	if err != nil {
		return nil, err
	}
	return &AdaptiveRuntime{s: s, rt: rt, threshold: threshold, keep: keepWindows}, nil
}

// Runtime exposes the current deployment (it changes after a re-plan).
func (a *AdaptiveRuntime) Runtime() *runtime.Runtime { return a.rt }

// Replans counts how many times the loop re-trained and redeployed.
func (a *AdaptiveRuntime) Replans() int { return a.replans }

// Close stops the current deployment's shard workers (see runtime.Close);
// call it when done processing.
func (a *AdaptiveRuntime) Close() { a.rt.Close() }

// ProcessWindow processes one window and, if the collision signal fired,
// re-trains and redeploys before returning. The returned flag reports
// whether a re-plan happened; dynamic refinement state restarts after one
// (the new coarse levels re-discover the needles within a window or two).
func (a *AdaptiveRuntime) ProcessWindow(frames [][]byte) (*runtime.WindowReport, bool, error) {
	rep := a.rt.ProcessWindow(frames)

	a.recent = append(a.recent, planner.Frames(frames))
	if len(a.recent) > a.keep {
		a.recent = a.recent[len(a.recent)-a.keep:]
	}

	if !a.rt.NeedsReplan(a.threshold) || len(a.recent) == 0 {
		return rep, false, nil
	}
	if err := a.s.Train(a.recent); err != nil {
		return rep, false, fmt.Errorf("core: re-training after collision signal: %w", err)
	}
	rt, err := a.s.Deploy()
	if err != nil {
		return rep, false, fmt.Errorf("core: redeploying after collision signal: %w", err)
	}
	a.rt.Close() // the replaced deployment's workers would otherwise stay parked
	a.rt = rt
	a.replans++
	return rep, true, nil
}
