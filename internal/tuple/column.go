package tuple

import "math/bits"

// Column is one field of a batch of tuples, indexed by row: numeric values
// in U, or — where the field is statically string-valued — Values in V.
// Exactly one is non-nil. The switch walk indexes rows by frame and the
// stream executor by arrival; both narrow a batch with a selection bitmap
// (bit r set: row r is live) instead of moving rows.
type Column struct {
	U []uint64
	V []Value
}

// At returns row i's value.
func (c *Column) At(i int) Value {
	if c.V != nil {
		return c.V[i]
	}
	return U64(c.U[i])
}

// Set stores row i's value; a numeric column keeps v.U.
func (c *Column) Set(i int, v Value) {
	if c.V != nil {
		c.V[i] = v
	} else {
		c.U[i] = v.U
	}
}

// AppendRow appends row i of cols, as a tuple, to dst.
func AppendRow(dst []Value, cols []Column, i int) []Value {
	for c := range cols {
		dst = append(dst, cols[c].At(i))
	}
	return dst
}

// ColumnPool hands out column storage for one walk over a batch: Reset
// starts a walk over n rows, every Take draws from buffers kept from earlier
// walks, and nothing handed out is reused before the next Reset — so a stage
// may pass an input column through by aliasing it. A pool grows to the
// largest batch and the widest pipeline seen and then allocates nothing.
type ColumnPool struct {
	n          int
	us         [][]uint64
	vs         [][]Value
	cols       []Column
	nu, nv, nc int
}

// Reset starts a walk over n rows.
func (p *ColumnPool) Reset(n int) { p.n, p.nu, p.nv, p.nc = n, 0, 0, 0 }

// Take returns one column of n rows (contents unspecified) per entry of
// str: a Value column where str says the field is string-valued, a numeric
// one elsewhere.
func (p *ColumnPool) Take(str []bool) []Column {
	if p.nc+len(str) > len(p.cols) {
		// Earlier headers stay valid in the array they were cut from.
		p.cols = make([]Column, max(2*len(p.cols), len(str), 16))
		p.nc = 0
	}
	p.nc += len(str)
	out := p.cols[p.nc-len(str) : p.nc : p.nc]
	clear(out)
	for c, s := range str {
		if s {
			out[c].V = take(&p.vs, &p.nv, p.n)
		} else {
			out[c].U = take(&p.us, &p.nu, p.n)
		}
	}
	return out
}

// take returns the next unused buffer of bufs, n long.
func take[T any](bufs *[][]T, used *int, n int) []T {
	if *used == len(*bufs) {
		*bufs = append(*bufs, nil)
	}
	buf := &(*bufs)[*used]
	if cap(*buf) < n || *buf == nil {
		// Never nil, even for an empty walk: which slice is non-nil is the
		// column's kind.
		*buf = make([]T, n)
	}
	*used++
	return (*buf)[:n]
}

// SelCount returns the number of rows selected.
func SelCount(sel []uint64) int {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// SelAll returns sel resized for n rows with every one of them selected: a
// dense batch.
func SelAll(sel []uint64, n int) []uint64 {
	nw := (n + 63) >> 6
	if cap(sel) < nw {
		sel = make([]uint64, nw)
	}
	sel = sel[:nw]
	for w := range sel {
		sel[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		sel[nw-1] = 1<<uint(r) - 1
	}
	return sel
}

// SelAnd narrows sel to the rows also in mask, which is at least as long.
func SelAnd(sel, mask []uint64) {
	for w := range sel {
		sel[w] &= mask[w]
	}
}

// SelRows appends the selected row indices, ascending, to rows.
func SelRows(sel []uint64, rows []int32) []int32 {
	for w, word := range sel {
		for b := word; b != 0; b &= b - 1 {
			rows = append(rows, int32(w<<6|bits.TrailingZeros64(b)))
		}
	}
	return rows
}
