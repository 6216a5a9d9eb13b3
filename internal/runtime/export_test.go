package runtime

import (
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// The refinement links, exported to the package's external tests: the
// network-wide reference fabric (fabric_ref_test.go) publishes through them,
// and it must live outside the package because the evaluation workload it
// replays imports this one.

type Link = link

func PlanLinks(plan *planner.Plan) ([]Link, error) { return planLinks(plan) }

func (l *link) Resolve(sp *stream.DynTables, switches ...*pisa.Switch) error {
	return l.resolve(sp, switches...)
}

func (l *link) Publish(keys []tuple.Value) int {
	n, _ := l.publish(keys)
	return n
}

func (r *Runtime) Links() []Link { return r.links }

// Published is the key set link i published at the last window close,
// sorted.
func (r *Runtime) Published(i int) []tuple.Value { return r.links[i].last }
