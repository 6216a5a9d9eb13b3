package stream

import (
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// PipelineProfile summarizes one pipeline's behaviour over one window of
// training traffic. It supplies the planner's workload inputs (Table 1):
// N_{q,t}, the tuples that would reach the stream processor if the pipeline
// were cut after operator t, and the state footprint of each stateful
// operator.
type PipelineProfile struct {
	// Input is the number of packets fed to the pipeline.
	Input uint64
	// OutAfter[i] is the number of records emitted by op i during the
	// window: a streaming pass count for stateless operators before any
	// state, and an end-of-window count (one per key) at and after the
	// first stateful operator — exactly the switch's reporting behaviour.
	// OutAfter[len(ops)] counts records that fell off the pipeline end.
	OutAfter []uint64
	// Keys[i] is the number of distinct keys held by stateful op i.
	Keys []uint64
	// KeyBits[i] is the width of stateful op i's key in bits.
	KeyBits []int
	// Outputs are the final tuples the pipeline produced.
	Outputs [][]tuple.Value
}

// Profiler replays training windows through a pipeline to measure workload
// costs. A zero Profiler is not usable; construct with NewProfiler.
//
// The profiler runs the same batched executor as the live engine: packets
// walk the packet-phase prefix a batchCap run at a time, op by op, and the
// landing map evaluates them into the column batch. EndWindow flushes the
// batch before draining state, so OutAfter and Keys — the planner's N_{q,t}
// inputs — are exactly what the per-tuple interpreter would have counted.
type Profiler struct {
	ops  []query.Op
	exec *pipeExec
	// run and all are the current run's packets, as the executor takes them
	// (no field is extracted: one pipeline reads each field about once, which
	// is what extraction costs), and an all-ones selection over it.
	run query.PacketBatch
	all []uint64
}

// NewProfiler prepares a profiler over the full pipeline (partition point
// zero). The dyn tables allow profiling pipelines that contain dynamic
// refinement filters; pass nil when there are none.
func NewProfiler(ops []query.Op, dyn *DynTables) *Profiler {
	if dyn == nil {
		dyn = NewDynTables()
	}
	return &Profiler{ops: ops, exec: newPipeExec(ops, 0, dyn, nil)}
}

// Dyn exposes the profiler's dynamic tables so callers can install
// refinement keys between windows.
func (p *Profiler) Dyn() *DynTables { return p.exec.dyn }

// Feed pushes a run of parsed packets into the pipeline, in order.
func (p *Profiler) Feed(pkts []packet.Packet) {
	p.exec.inputCount += uint64(len(pkts))
	for len(pkts) > 0 {
		n := min(batchCap, len(pkts))
		p.run.Pkts = p.run.Pkts[:0]
		for i := range pkts[:n] {
			p.run.Pkts = append(p.run.Pkts, &pkts[i])
		}
		p.all = tuple.SelAll(p.all, n)
		p.exec.ingestPackets(0, &p.run, p.all)
		pkts = pkts[n:]
	}
}

// EndWindow closes the window and returns the profile: any tuples still
// buffered in the column batch flush through the op chain first, then state
// drains. Counters and state reset for the next window.
func (p *Profiler) EndWindow() PipelineProfile {
	prof := PipelineProfile{
		Input:    p.exec.inputCount,
		OutAfter: make([]uint64, len(p.ops)+1),
		Keys:     make([]uint64, len(p.ops)),
		KeyBits:  make([]int, len(p.ops)),
	}
	prof.Outputs = p.exec.endWindow()
	copy(prof.OutAfter, p.exec.outCounts)
	// Key counts are captured by endWindow at drain time: a stateful op fed
	// by another stateful op's flush only fills during the drain.
	for i := range p.ops {
		if p.exec.states[i] != nil {
			prof.Keys[i] = p.exec.lastKeys[i]
			prof.KeyBits[i] = statefulKeyBits(&p.ops[i])
		}
	}
	p.exec.resetCounts()
	p.exec.inputCount = 0
	return prof
}

// statefulKeyBits returns the metadata width of a stateful op's key.
func statefulKeyBits(o *query.Op) int {
	bits := 0
	in := o.InSchema()
	for _, k := range o.KeyCols {
		bits += in[k].Bits()
	}
	return bits
}
