package main

import (
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// samplesBeyond is how many of n samples lie above the p-quantile.
func samplesBeyond(n int, p float64) int {
	return n - 1 - int(p*float64(n-1))
}

// highestPercentile returns the highest whole percentile of n samples that
// still has at least beyond samples above it (0 when even the median has
// not): the tail a sample of this size supports.
func highestPercentile(n, beyond int) int {
	for pct := 99; pct >= 50; pct-- {
		if samplesBeyond(n, float64(pct)/100) >= beyond {
			return pct
		}
	}
	return 0
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. Fewer than two samples have no
// spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / med
}

// FNV-1a, 64 bit. A rowHash digests one result tuple; a window's digest sums
// its row hashes, so it does not depend on the order results arrive in.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type rowHash uint64

func newRowHash(qid uint16, level uint8) rowHash {
	return rowHash(fnvOffset).u64(uint64(qid)<<8 | uint64(level))
}

func (h rowHash) u64(v uint64) rowHash {
	for i := 0; i < 8; i++ {
		h = (h ^ rowHash(v&0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func (h rowHash) str(s string) rowHash {
	h = h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ rowHash(s[i])) * fnvPrime
	}
	return h
}

// windowDigest accumulates row hashes order-independently.
type windowDigest struct{ sum, rows uint64 }

func (d *windowDigest) add(h rowHash) {
	d.sum += uint64(h)
	d.rows++
}

// finish folds in the row count and the window's tuples-to-SP count.
func (d windowDigest) finish(tuplesToSP uint64) uint64 {
	return uint64(rowHash(d.sum).u64(d.rows).u64(tuplesToSP))
}

var spinSink uint64

// spin times a fixed arithmetic loop: a probe for host noise (frequency
// scaling, a busy neighbour) taken before and after each workload.
func spin() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 5_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}
