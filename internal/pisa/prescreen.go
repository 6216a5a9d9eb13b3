package pisa

import "repro/internal/query"

// Prescreen owns the program-wide set of distinct static leading-filter
// clauses ("atoms") that gate instance entry. A switch built with
// NewSwitchShared interns its instances' leading clauses here instead of in
// a private table, so several switches — the runtime's worker shards —
// share one atom space. The dispatch side then evaluates every atom exactly
// once per view batch (Eval) and ships the bitmaps with the batch; each
// shard only ANDs the masks its own instances reference. Without sharing,
// every shard re-evaluates every atom over every frame, multiplying the
// prescreen cost by the worker count.
//
// The header fields the instances read in packet phase are interned the same
// way (fields): Eval extracts each of them from every runnable frame once —
// the parser filling the packet header vector — and the atoms, the switch
// walks of every shard and the stream processors behind them read columns.
//
// A Prescreen is built single-threaded (switch construction) and read-only
// afterwards; Eval writes only into the caller-owned PrescreenMasks.
type Prescreen struct {
	atoms  []query.Clause
	atomOf map[query.Clause]int
	fields query.FieldSet
}

// NewPrescreen returns an empty shared atom space.
func NewPrescreen() *Prescreen {
	return &Prescreen{atomOf: make(map[query.Clause]int)}
}

// intern returns the atom index for cl, adding it if unseen. Instances
// installed at several refinement levels share their entry filters, so the
// program-wide dedup is what buys the win.
func (ps *Prescreen) intern(cl query.Clause) int {
	idx, ok := ps.atomOf[cl]
	if !ok {
		idx = len(ps.atoms)
		ps.atomOf[cl] = idx
		ps.atoms = append(ps.atoms, cl)
	}
	return idx
}

// PrescreenMasks is what a dispatch side computes once per batch and ships
// read-only to every shard: the runnable bitmap, one selection bitmap per
// atom, and the views' packets in the form the column kernels take them —
// with the interned header fields of every runnable frame extracted into
// frame-indexed columns (a field's carried-by bitmap is a subset of
// runnable). Storage is reused across batches and grows monotonically, so a
// pooled batch carrying its masks allocates nothing in steady state.
type PrescreenMasks struct {
	runnable []uint64
	atoms    [][]uint64
	batch    query.PacketBatch
}

// Eval fills m with the runnable bitmap, the field columns of the runnable
// frames, and one bitmap per atom over vs: bit i of an atom's mask is set
// when view i is runnable and matches the clause. After Eval everything in m
// is read-only until the next Eval, so any number of shards may consult it
// concurrently.
func (ps *Prescreen) Eval(vs []View, m *PrescreenMasks) {
	words := (len(vs) + 63) >> 6
	if cap(m.runnable) < words {
		m.runnable = make([]uint64, words)
	}
	if len(m.atoms) < len(ps.atoms) {
		grown := make([][]uint64, len(ps.atoms))
		copy(grown, m.atoms)
		m.atoms = grown
	}
	run := m.runnable[:words]
	for w := range run {
		run[w] = 0
	}
	pkts := m.batch.Pkts[:0]
	for i := range vs {
		pkts = append(pkts, &vs[i].Pkt)
		if vs[i].Runnable {
			run[i>>6] |= 1 << uint(i&63)
		}
	}
	m.runnable, m.batch.Pkts = run, pkts
	m.batch.Extract(&ps.fields, run)
	for a := range ps.atoms {
		if cap(m.atoms[a]) < words {
			m.atoms[a] = make([]uint64, words)
		}
		m.atoms[a] = m.atoms[a][:words]
		copy(m.atoms[a], run)
		query.FilterPackets(m.atoms[a], &m.batch, ps.atoms[a:a+1])
	}
}
