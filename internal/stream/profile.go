package stream

import (
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
// walk the packet-phase prefix op by op as column kernels over the caller's
// batch, and the landing map evaluates them into the column batch. EndWindow
// flushes the batch before draining state, so OutAfter and Keys — the
// planner's N_{q,t} inputs — are exactly what the per-tuple interpreter would
// have counted.
type Profiler struct {
	ops  []query.Op
	exec *pipeExec
	// run is the slice of the caller's batch being fed.
	run query.PacketBatch
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

// Reset readies the profiler for another pipeline, as NewProfiler(ops) with
// the same dynamic tables would, except that it keeps the keyed-state tables
// it has grown: a stateful op i of ops takes over the previous pipeline's
// table i, emptied. A caller profiling many pipelines in turn — a planner's
// levels and edges — so stops regrowing them. Profiles EndWindow returned
// earlier stay valid.
func (p *Profiler) Reset(ops []query.Op) {
	tabs := p.exec.states
	p.ops, p.exec = ops, newPipeExec(ops, 0, p.exec.dyn, nil)
	for i, st := range p.exec.states {
		if st != nil && i < len(tabs) && tabs[i] != nil {
			tabs[i].Reset()
			p.exec.states[i] = tabs[i]
		}
	}
}

// Dyn exposes the profiler's dynamic tables so callers can install
// refinement keys between windows.
func (p *Profiler) Dyn() *DynTables { return p.exec.dyn }

// Feed pushes the packets sel selects from b into the pipeline, in row
// order, a batchCap-row slice at a time (a whole number of selection words)
// so the landing columns stay in cache; b and sel are only read. The kernels read a field b extracted as a
// column and any other from the packet, so a caller profiling many pipelines
// over one window extracts the fields they share once, into one batch of the
// whole window, and hands every run that batch — or, for runs behind a
// packet-phase prefix it evaluated itself, the prefix's selection.
func (p *Profiler) Feed(b *query.PacketBatch, sel []uint64) {
	p.exec.inputCount += uint64(tuple.SelCount(sel))
	for lo := 0; lo < len(b.Pkts); lo += batchCap {
		hi := min(lo+batchCap, len(b.Pkts))
		b.Slice(&p.run, lo, hi)
		p.exec.ingestPackets(0, &p.run, sel[lo>>6:(hi+63)>>6])
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
