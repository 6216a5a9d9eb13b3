// Package trace generates and replays synthetic packet traces that stand in
// for the CAIDA backbone captures used in the paper.
//
// The paper's planner and refinement machinery depend on three statistical
// properties of real traffic, all of which the generator reproduces:
//
//  1. heavy-tailed per-key packet counts (a few hosts dominate),
//  2. prefix locality (hosts cluster inside shared /8, /16, /24 prefixes, so
//     aggregating at a coarse prefix concentrates traffic the way
//     prefix-preserving-anonymized CAIDA data does), and
//  3. tiny needle-to-haystack ratios (the traffic satisfying a query is a
//     vanishing fraction of the total).
//
// Generation is deterministic given a seed, and is performed window by
// window so multi-gigabyte traces never need to be materialized at once.
package trace

import (
	"sort"
	"time"
)

// Record is one packet with its virtual capture time, expressed as an offset
// from the start of the trace.
type Record struct {
	TS   time.Duration
	Data []byte
}

// Window is the set of packets falling inside one query window, sorted by
// timestamp.
type Window struct {
	Index   int
	Start   time.Duration
	Records []Record
}

// Frames returns the window's frames, in record order, sharing the
// records' bytes.
func (w Window) Frames() [][]byte {
	frames := make([][]byte, len(w.Records))
	for i, r := range w.Records {
		frames[i] = r.Data
	}
	return frames
}

// AttackKind labels the injected event classes, one per telemetry query in
// Table 3 of the paper.
type AttackKind string

const (
	KindSYNFlood      AttackKind = "syn-flood"
	KindSSHBrute      AttackKind = "ssh-brute"
	KindSuperspreader AttackKind = "superspreader"
	KindPortScan      AttackKind = "port-scan"
	KindDDoS          AttackKind = "ddos"
	KindIncomplete    AttackKind = "tcp-incomplete"
	KindSlowloris     AttackKind = "slowloris"
	KindDNSTunnel     AttackKind = "dns-tunnel"
	KindZorro         AttackKind = "zorro"
	KindDNSReflection AttackKind = "dns-reflection"
	KindNewTCP        AttackKind = "new-tcp-conns"
)

// GroundTruth records what an injected attack did, so tests and the
// case-study harness can check detections against it.
type GroundTruth struct {
	Kind     AttackKind
	Victim   uint32 // the key the query should report (vantage-dependent)
	Attacker uint32
	Domain   string // for DNS attacks
	Start    time.Duration
	End      time.Duration
}

// sortRecords orders records by timestamp, with a stable tiebreak so
// generation is fully deterministic.
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TS < recs[j].TS })
}

// Slice groups an already-sorted record list into windows of width w. Empty
// trailing windows are preserved up to total, so replay timing matches the
// trace duration even when traffic is bursty.
func Slice(recs []Record, w, total time.Duration) []Window {
	if w <= 0 {
		panic("trace: non-positive window")
	}
	n := int((total + w - 1) / w)
	if n == 0 {
		n = 1
	}
	wins := make([]Window, n)
	for i := range wins {
		wins[i].Index = i
		wins[i].Start = time.Duration(i) * w
	}
	for _, r := range recs {
		i := int(r.TS / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		wins[i].Records = append(wins[i].Records, r)
	}
	return wins
}
