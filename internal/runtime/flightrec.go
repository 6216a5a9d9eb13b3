package runtime

import (
	"fmt"

	"repro/internal/flightrec"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/stream"
)

// AttachFlightRecorder has rec commit every closed window: the report's
// per-instance records, its frame count and shard busy times, and the
// window's freshness. The recorder is Reset with the deployment's instances
// first — their stages, owner shard, trained work estimate and refinement
// source — so after a Replan, which attaches it again, it tracks the new
// plan's instances only. A nil recorder detaches.
func (r *Runtime) AttachFlightRecorder(rec *flightrec.Recorder) {
	r.flight = rec
	if rec == nil {
		return
	}
	insts := make([]flightrec.Instance, len(r.infos))
	for i, in := range r.infos {
		insts[i] = flightrec.Instance{
			QID:           in.key.QID,
			Level:         in.key.Level,
			Shard:         r.owner[i],
			EstWork:       in.cost,
			CollisionWork: planner.OverflowWork,
			RefFrom:       -1,
			Stages:        stageInfos(in.aug, in.part),
		}
	}
	for _, l := range r.links {
		insts[l.Slot].RefFrom = int(l.From)
	}
	rec.Reset(insts)
}

// stageInfos flattens one augmented query into the record's stage list:
// left ops, then right, then post-join, mirroring the engine's and switch's
// stage indexing.
func stageInfos(q *query.Query, part stream.Partition) []flightrec.StageInfo {
	var stages []flightrec.StageInfo
	for i := range q.Left.Ops {
		stages = append(stages, stageInfo(&q.Left.Ops[i], 'L', i, i < part.LeftStart, 0))
	}
	if q.HasJoin() {
		for i := range q.Right.Ops {
			stages = append(stages, stageInfo(&q.Right.Ops[i], 'R', i, i < part.RightStart, 1))
		}
		for i := range q.Post.Ops {
			stages = append(stages, stageInfo(&q.Post.Ops[i], 'P', i, false, 2))
		}
	}
	return stages
}

func stageInfo(o *query.Op, seg byte, idx int, onSwitch bool, segNo int) flightrec.StageInfo {
	kind := o.Kind.String()
	if o.DynFilterTable != "" {
		kind = "dynfilter"
	}
	where := "sp"
	if onSwitch {
		where = "sw"
	}
	return flightrec.StageInfo{
		Label:    fmt.Sprintf("%c%d %s@%s", seg, idx, kind, where),
		Kind:     kind,
		Weight:   planner.OpWork(o),
		OnSwitch: onSwitch,
		Seg:      segNo,
	}
}
