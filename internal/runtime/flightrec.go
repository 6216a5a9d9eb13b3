package runtime

import (
	"fmt"

	"repro/internal/flightrec"
	"repro/internal/query"
	"repro/internal/stream"
)

// AttachFlightRecorder wires a flight recorder into the deployment: one
// probe per installed (query, level) instance, fed by the switch (per-stage
// packet counts, collisions, mirrors, register occupancy), the engine
// (tuples in, per-stage SP counts, eval time — and, through the instance the
// emitter resolves, the encoded byte volume), and the runtime itself
// (refinement transitions, window commit).
// The recorder is Reset first, so a recorder reused across deployments
// always reflects the live one. A nil recorder detaches.
func (r *Runtime) AttachFlightRecorder(rec *flightrec.Recorder) {
	r.flight = rec
	r.frProbes = nil
	var lookup func(qid uint16, level uint8) *flightrec.Probe
	if rec != nil {
		rec.Reset()
		refFrom := make(map[stream.QueryKey]int, len(r.links))
		for _, l := range r.links {
			refFrom[stream.QueryKey{QID: l.QID, Level: l.To}] = int(l.From)
		}
		r.frProbes = make(map[stream.QueryKey]*flightrec.Probe, len(r.infos))
		for _, in := range r.infos {
			stages, nLeft, nRight := stageInfos(in.aug, in.part)
			from, ok := refFrom[in.key]
			if !ok {
				from = -1
			}
			r.frProbes[in.key] = rec.Track(flightrec.TrackConfig{
				QID:     in.key.QID,
				Level:   in.key.Level,
				Shard:   r.owner[in.key],
				EstWork: uint64(in.cost),
				RefFrom: from,
				NumLeft: nLeft, NumRight: nRight,
				Stages: stages,
			})
		}
		probes := r.frProbes
		lookup = func(qid uint16, level uint8) *flightrec.Probe {
			return probes[stream.QueryKey{QID: qid, Level: level}]
		}
	}
	r.frLookup = lookup
	// A sink installed before the recorder gets its probes now (and loses
	// them when the recorder detaches); SetResultSink covers the other order.
	if a, ok := r.sink.(FlightRecAttacher); ok {
		a.AttachFlightRec(lookup)
	}
	for _, s := range r.shards {
		for _, sw := range s.sws {
			sw.AttachFlightRec(lookup)
		}
		s.engine.AttachFlightRec(lookup)
	}
}

// stageInfos flattens one augmented query into the probe's global stage
// list: left ops, then right, then post-join, mirroring the engine's and
// switch's stage indexing.
func stageInfos(q *query.Query, part stream.Partition) (stages []flightrec.StageInfo, nLeft, nRight int) {
	nLeft = len(q.Left.Ops)
	for i := range q.Left.Ops {
		stages = append(stages, stageInfo(&q.Left.Ops[i], 'L', i, i < part.LeftStart, 0))
	}
	if q.HasJoin() {
		nRight = len(q.Right.Ops)
		for i := range q.Right.Ops {
			stages = append(stages, stageInfo(&q.Right.Ops[i], 'R', i, i < part.RightStart, 1))
		}
		for i := range q.Post.Ops {
			stages = append(stages, stageInfo(&q.Post.Ops[i], 'P', i, false, 2))
		}
	}
	return stages, nLeft, nRight
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
		Stateful: o.Stateful(),
		OnSwitch: onSwitch,
		Seg:      segNo,
	}
}
