package pisa

import (
	"repro/internal/compile"
	"repro/internal/keytab"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/tuple"
)

// The frame-at-a-time walk is the switch's reference semantics, kept here as
// the oracle the batched walk (walk.go) is held to: one frame through one
// instance's tables after the other, one Mirror per report, delivered to the
// sink's HandleMirror. RegisterBank.Update is its register probe and
// TestRegisterBankMatchesModel's reference for the batched probe.

// recordHandler is a sink that also takes the reference walk's records one
// at a time. Every sink a test hands a switch it drives through Process is
// one.
type recordHandler interface {
	HandleMirror(m Mirror)
}

func (f recordSink) HandleMirror(m Mirror) { f(m) }
func (nullSink) HandleMirror(Mirror)       {}

// Process parses one frame and runs it through every installed instance,
// counting it in PacketsIn. It returns the number of mirror reports
// generated. Malformed frames are forwarded without telemetry processing,
// like any non-matching traffic.
func (sw *Switch) Process(frame []byte) int {
	sw.stats.PacketsIn++
	var v View
	v.Prepare(packet.NewParser(packet.ParserOptions{}), frame)
	return sw.ProcessView(&v)
}

// ProcessView runs an already-parsed frame through every installed
// instance, one table after the other. Like ProcessViews it does not count
// PacketsIn and skips non-Runnable views.
func (sw *Switch) ProcessView(v *View) int {
	if !v.Runnable {
		return 0
	}
	reports := 0
	for _, st := range sw.insts {
		if sw.processInstance(st, v) {
			reports++
		}
	}
	return reports
}

// processInstance walks one packet through one instance's switch-side
// tables. It returns true if a mirror report was emitted.
func (sw *Switch) processInstance(st *instState, pv *View) bool {
	spec := st.spec
	var vals []tuple.Value // metadata tuple once past the first map
	inTuplePhase := false

	for t := 0; t < spec.CutAt; t++ {
		tab := &spec.Tables[t]
		o := &spec.Ops[tab.OpIdx]
		if op := st.opAt[t]; op >= 0 {
			st.stats.OpIn[op]++
		}
		switch tab.Kind {
		case compile.TableFilter:
			if inTuplePhase {
				for i := range o.Clauses {
					if !o.Clauses[i].MatchTuple(vals) {
						return false
					}
				}
			} else {
				for i := range o.Clauses {
					if !o.Clauses[i].MatchPacket(&pv.Pkt) {
						return false
					}
				}
			}
		case compile.TableDynFilter:
			// A table not yet populated admits nothing: the finer level idles.
			if !st.dynRules[t].Load().MatchPacket(o, &pv.Pkt) {
				return false
			}
		case compile.TableMap:
			out := make([]tuple.Value, len(o.Cols))
			if inTuplePhase {
				for i := range o.Cols {
					out[i] = o.Cols[i].Expr.EvalTuple(vals)
				}
			} else {
				for i := range o.Cols {
					v, ok := o.Cols[i].Expr.EvalPacket(&pv.Pkt)
					if !ok {
						return false
					}
					out[i] = v
				}
			}
			vals = out
			inTuplePhase = true
		case compile.TableHashIndex:
			// Index computation is folded into the bank update below.
		case compile.TableStateUpdate:
			var inc uint64 = 1
			if o.Kind == query.OpReduce {
				inc = vals[o.ValCol].U
			}
			newVal, newKey, ok := st.banks[t].Update(vals, o.KeyCols, inc, statefulFunc(o))
			if !ok {
				// Collision overflow: shunt to the stream processor, which
				// executes the stateful op itself for this packet.
				sw.shunted(st)
				sw.emit(st, st.out.shuntMirror(tab.OpIdx, vals))
				return true
			}
			if t == spec.CutAt-1 {
				// One report per key via the end-of-window register dump;
				// nothing per packet.
				return false
			}
			// Mid-pipeline stateful table: distinct passes first
			// occurrences through; reduce carries the running aggregate.
			if o.Kind == query.OpDistinct && !newKey {
				return false
			}
			next := make([]tuple.Value, len(o.KeyCols), len(o.KeyCols)+1)
			for i, j := range o.KeyCols {
				next[i] = vals[j]
			}
			if o.Kind != query.OpDistinct {
				next = append(next, tuple.U64(newVal))
			}
			vals = next
			if m := tab.MergedFilterOp; m >= 0 {
				st.stats.OpIn[m]++
				mo := &spec.Ops[m]
				for i := range mo.Clauses {
					if !mo.Clauses[i].MatchTuple(vals) {
						return false
					}
				}
			}
		}
	}

	// Survived every switch table with a stateless tail (or nothing runs on
	// the switch — the All-SP plan — and every packet mirrors): report.
	sw.emit(st, st.out.tailMirror(pv, vals, inTuplePhase))
	return true
}

// emit sends one record of the reference walk out the monitoring port.
func (sw *Switch) emit(st *instState, m Mirror) {
	sw.stats.Mirrored++
	st.stats.Mirrored++
	sw.sink.(recordHandler).HandleMirror(m)
}

// Update folds v into the slot keyed by vals[keyIdx...] using fn, one key at
// a time: the reference walk's probe. The boolean reports success; on
// failure (all d chains collide) the caller shunts the packet to the stream
// processor. newKey reports first-touch of the key this window.
func (b *RegisterBank) Update(vals []tuple.Value, keyIdx []int, v uint64, fn query.AggFunc) (newVal uint64, newKey, ok bool) {
	h := uint64(keytab.HashSeed)
	var k0, k1 uint64
	packed := b.packs(len(keyIdx))
	for j, c := range keyIdx {
		kv := &vals[c]
		if kv.Str {
			h, packed = keytab.HashStr(h, kv.S), false
			continue
		}
		h = keytab.HashU64(h, kv.U)
		if packed {
			k0, k1, packed = packU64(k0, k1, kv.U, b.widths[j])
		}
	}
	// The key as foldRow takes it: one row whose slot key is the packed
	// columns, or the hash when the key does not pack.
	cols := make([]tuple.Column, len(vals))
	for c := range cols {
		cols[c].V = vals[c : c+1]
	}
	if !packed {
		k0, k1 = h, 0
	}
	key := rowKey{h: h, k0: k0, k1: k1, p0: uint32(fastRange(keytab.Mix64(h^b.seeds[0]), b.entries)), tagged: !packed}
	return b.foldRow(&key, cols, keyIdx, 0, v, fn)
}

// packU64 shifts a w-bit column value into the 128-bit packed key k1:k0,
// reporting false when the value is wider than its declared field: the
// scalar form of hashRows' column kernels.
func packU64(k0, k1, u uint64, w uint8) (uint64, uint64, bool) {
	if w == 64 {
		return u, k0, true
	}
	return k0<<w | u, k1<<w | k0>>(64-w), u>>w == 0
}
