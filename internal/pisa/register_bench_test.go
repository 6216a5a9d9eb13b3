package pisa

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/query"
	"repro/internal/tuple"
)

// probeWorkload is the register probe beyond L2: six banks of 3 chains ×
// 16,384 slots (9 MB of slots in all), keyed by three columns packed into 80
// bits (32/16/32), and a 100,000-row window over about 20,000 distinct keys
// drawn Zipf-like — the shape of a deployed plan's stateful tables at 100k
// packets per window, without the rest of the switch walk.
type probeWorkload struct {
	banks     []*RegisterBank
	cols      []tuple.Column // the window's frames, a column per tuple field
	batchCols []tuple.Column // the current batch's frames of cols
	keyIdx    []int
	rows      []int32 // one batch's selection: every other frame
	fold      rowFold
	off       int // the next batch's first frame
}

const (
	probeWindow = 100_000
	probeBatch  = 256
)

func newProbeWorkload() *probeWorkload {
	w := &probeWorkload{keyIdx: []int{1, 2, 3}}
	for i := 0; i < 6; i++ {
		w.banks = append(w.banks, NewRegisterBank(16384, 3, []int{32, 16, 32}))
	}
	// Column 0 is the reduce's value; the key columns follow it. A batch
	// spans 2*probeBatch frames and selects every other one, so the rows
	// are not the identity: a window is 2*probeWindow frames.
	n := 2 * probeWindow
	w.cols, w.batchCols = make([]tuple.Column, 4), make([]tuple.Column, 4)
	for c := range w.cols {
		w.cols[c].U = make([]uint64, n)
	}
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, 1.01, 1, 60_000-1) // ~20k distinct keys per window
	for i := 0; i < n; i++ {
		k := z.Uint64()
		w.cols[0].U[i] = 1 + uint64(i&7)
		w.cols[1].U[i] = 0x0A000000 | k*2654435761&0xFFFFFF
		w.cols[2].U[i] = k & 0xFFFF
		w.cols[3].U[i] = 0xC0A80000 | k>>4
	}
	for i := 0; i < 2*probeBatch; i += 2 {
		w.rows = append(w.rows, int32(i))
	}
	w.fold.sel = make([]uint64, 2*probeBatch/64)
	return w
}

// batch probes every bank with the next probeBatch rows the way
// Switch.stateUpdate does for the last table on the switch, resetting the
// banks at the end of a window.
func (w *probeWorkload) batch() (collided int) {
	if w.off+2*probeBatch > 2*probeWindow {
		for _, b := range w.banks {
			b.Reset()
		}
		w.off = 0
	}
	cols := w.batchCols
	for c := range cols {
		cols[c].U = w.cols[c].U[w.off:]
	}
	f := &w.fold
	for _, b := range w.banks {
		*f = rowFold{cols: cols, keyIdx: w.keyIdx, rows: w.rows, inc: cols[0].U, fn: query.AggSum,
			sel: f.sel, last: true, keys: f.keys, collided: f.collided[:0]}
		b.foldRows(f)
		collided += len(f.collided)
	}
	w.off += 2 * probeBatch
	return collided
}

// BenchmarkRegisterBankProbe runs probeWorkload a batch per iteration and
// reports the cost of one row's probe of one bank.
func BenchmarkRegisterBankProbe(b *testing.B) {
	w := newProbeWorkload()
	for i := 0; i < probeWindow/probeBatch; i++ {
		w.batch() // warm: one window grows the banks' position lists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.batch()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probeBatch*len(w.banks)), "ns/row")
}

// TestRegisterBankProbeAllocBudget pins probeWorkload's steady state —
// windows of inserts, hits and resets — to its RegisterBankProbe budget in
// alloc_budget.json, which is zero.
func TestRegisterBankProbeAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("../../alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budgets map[string]float64
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatal(err)
	}
	budget, ok := budgets["RegisterBankProbe"]
	if !ok {
		t.Fatal(`alloc_budget.json has no budget for "RegisterBankProbe"`)
	}
	w := newProbeWorkload()
	for i := 0; i < probeWindow/probeBatch; i++ {
		w.batch()
	}
	if allocs := testing.AllocsPerRun(2*probeWindow/probeBatch, func() { w.batch() }); allocs > budget {
		t.Errorf("RegisterBankProbe: %.1f allocs/op exceeds budget of %.0f", allocs, budget)
	}
}
