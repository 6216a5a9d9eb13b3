package compile

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/query"
)

func q1() *query.Query {
	q := query.NewBuilder("q1", time.Second).
		Filter(query.Eq(fields.TCPFlags, 2)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 40)).
		MustBuild()
	q.ID = 1
	return q
}

func TestCompileMergesThresholdFilter(t *testing.T) {
	cp := CompilePipeline(q1().Left.Ops)
	last := cp.Tables[len(cp.Tables)-1]
	if last.Kind != TableStateUpdate || last.MergedFilterOp != 3 {
		t.Fatalf("last table = %+v", last)
	}
	if last.LastOp() != 3 {
		t.Errorf("LastOp = %d", last.LastOp())
	}
	if last.KeyBits != 32 || last.ValBits != 32 {
		t.Errorf("slot sizing = %d/%d", last.KeyBits, last.ValBits)
	}
}

func TestCompileDistinctUsesOneBit(t *testing.T) {
	q := query.NewBuilder("d", time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		MustBuild()
	cp := CompilePipeline(q.Left.Ops)
	upd := cp.Tables[2]
	if upd.Kind != TableStateUpdate || upd.ValBits != 1 {
		t.Fatalf("distinct update table = %+v", upd)
	}
	if upd.KeyBits != 64 {
		t.Errorf("distinct key bits = %d, want 64", upd.KeyBits)
	}
}

func TestCompileCapPrefixStopsAtPayload(t *testing.T) {
	q := query.NewBuilder("z", time.Second).
		Filter(query.Eq(fields.DstPort, 23)).
		Filter(query.Contains(fields.Payload, "zorro")).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		MustBuild()
	cp := CompilePipeline(q.Left.Ops)
	if cp.CapPrefix != 1 {
		t.Fatalf("CapPrefix = %d, want 1 (only the port filter)", cp.CapPrefix)
	}
	// No merge across the capability boundary.
	pts := cp.ValidPartitionPoints()
	if pts[len(pts)-1] != 1 {
		t.Errorf("partition points = %v", pts)
	}
}

func TestMetaBitsIncludesOverhead(t *testing.T) {
	got := MetaBits(q1().Left.Ops)
	// Widest schema is (dIP:32, const:64) = 96 bits + 25 overhead.
	if got != 96+25 {
		t.Errorf("MetaBits = %d, want 121", got)
	}
}

func TestGenerateP4Structure(t *testing.T) {
	cp := CompilePipeline(q1().Left.Ops)
	code := GenerateP4("q1", []Instance{{Level: 32, Pipe: cp, CutAt: len(cp.Tables)}})
	for _, frag := range []string{
		"#include <v1model.p4>",
		"parser SonataParser",
		"control SonataIngress",
		"register<bit<32>>",
		"hdr.tcp.flags",
		"q1_r32_t3_state_update",
		"V1Switch(",
	} {
		if !strings.Contains(code, frag) {
			t.Errorf("P4 missing %q", frag)
		}
	}
	// Braces must balance: a quick well-formedness check on the emitter.
	if strings.Count(code, "{") != strings.Count(code, "}") {
		t.Errorf("unbalanced braces: %d vs %d",
			strings.Count(code, "{"), strings.Count(code, "}"))
	}
	if LinesOf(code) < 100 {
		t.Errorf("generated P4 suspiciously short: %d lines", LinesOf(code))
	}
}

func TestGenerateP4MultiLevel(t *testing.T) {
	cp := CompilePipeline(q1().Left.Ops)
	one := GenerateP4("q1", []Instance{{Level: 32, Pipe: cp, CutAt: 4}})
	three := GenerateP4("q1", []Instance{
		{Level: 8, Pipe: cp, CutAt: 4},
		{Level: 16, Pipe: cp, CutAt: 4},
		{Level: 32, Pipe: cp, CutAt: 4},
	})
	if LinesOf(three) <= LinesOf(one) {
		t.Errorf("multi-level program not longer: %d vs %d", LinesOf(three), LinesOf(one))
	}
}

func TestGenerateSparkShapes(t *testing.T) {
	full := GenerateSpark(q1(), 0, 0)
	for _, frag := range []string{"sonataTuples(qid = 1)", ".filter", ".map", ".reduceByKey(_ + _)", "foreachRDD"} {
		if !strings.Contains(full, frag) {
			t.Errorf("spark missing %q in:\n%s", frag, full)
		}
	}
	// Cutting ops off the front shortens the program.
	cut := GenerateSpark(q1(), 2, 0)
	if LinesOf(cut) >= LinesOf(full) {
		t.Errorf("partitioned spark not shorter: %d vs %d", LinesOf(cut), LinesOf(full))
	}

	// Join query renders both sides.
	sub := query.NewBuilder("bytes", time.Second).
		Map(query.F(fields.DstIP), query.F(fields.PktLen)).
		Reduce(query.AggSum, fields.DstIP)
	jq := query.NewBuilder("join", time.Second).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Join(sub, fields.DstIP).
		Map(query.C(fields.DstIP), query.Ratio(fields.AggVal, fields.AggVal2, 1000)).
		MustBuild()
	jq.ID = 8
	code := GenerateSpark(jq, 0, 0)
	if !strings.Contains(code, ".join(") || !strings.Contains(code, "side = 1") {
		t.Errorf("join spark missing pieces:\n%s", code)
	}
}

func TestLinesOfIgnoresBlanks(t *testing.T) {
	if got := LinesOf("a\n\n  \nb\n"); got != 2 {
		t.Errorf("LinesOf = %d, want 2", got)
	}
	if got := LinesOf(""); got != 0 {
		t.Errorf("LinesOf(empty) = %d", got)
	}
}

func TestValidPartitionPointsSkipHashIndex(t *testing.T) {
	cp := CompilePipeline(q1().Left.Ops)
	for _, p := range cp.ValidPartitionPoints() {
		if p > 0 && cp.Tables[p-1].Kind == TableHashIndex {
			t.Errorf("partition point %d splits a hash-index pair", p)
		}
	}
}
