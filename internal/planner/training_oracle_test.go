package planner

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/trace"
)

// oracleWindows generates two training windows of about 5k packets with
// every attack class of the evaluation suite plus a Zorro attacker, so each
// of the eleven queries has keys to satisfy.
func oracleWindows(t *testing.T, seed int64) []Frames {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.PacketsPerWindow = 5_000
	cfg.Windows = 2
	cfg.Hosts = 400
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace.StandardAttackSuite(g)
	g.AddAttack(trace.NewZorro(0x0A420001, trace.StandardVictim, 100, 0, g.Duration(), 0))
	out := make([]Frames, cfg.Windows)
	for i := range out {
		out[i] = g.WindowRecords(i).Frames()
	}
	return out
}

// oracleQueries is the full Table 3 set with thresholds scaled to 5k-packet
// windows, plus a DNS-name-keyed count and an unrefinable per-protocol
// count.
func oracleQueries() []*query.Query {
	p := queries.DefaultParams()
	p.NewTCPThresh, p.SSHBruteThresh, p.SpreaderThresh, p.PortScanThresh = 40, 10, 20, 20
	p.DDoSThresh, p.SYNFloodThresh, p.IncompleteThresh = 35, 40, 20
	p.SlowlorisBytesThresh, p.SlowlorisRatioThresh = 600, 5
	p.DNSTunnelThresh, p.DNSReflectThresh, p.ZorroTelnetThresh = 10, 35, 8
	qs := queries.All(p)
	dns := dnsCountQuery(3)
	dns.ID = uint16(len(qs) + 1)
	perProto := query.NewBuilder("per_proto", time.Second).
		Map(query.F(fields.Proto), query.ConstCol(1)).
		Reduce(query.AggSum, fields.Proto).
		Filter(query.Gt(fields.AggVal, 100)).
		MustBuild()
	perProto.ID = dns.ID + 1
	return append(qs, dns, perProto)
}

// synFinFlood joins per-host SYN counts above th with per-host SYN+FIN
// counts. The generator sends no SYN+FIN packet, so the join's right side
// outputs no rows in any window and every level's satisfying keys are the
// ones its left side hands down alone — the empty-side case the runtime's
// refinement reaches on tcp_syn_flood's gated levels.
func synFinFlood(th uint64) *query.Query {
	synFins := query.NewBuilder("syn_fins", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN|fields.FlagFIN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP)
	return query.NewBuilder("syn_fin_flood", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, th)).
		Join(synFins, fields.DstIP).
		MustBuild()
}

// TestTrainMatchesReference holds Train — one extraction per window, one
// open run per level, one gate per coarser level — to the reference trainer
// (training_ref_test.go), which runs every level, threshold observation and
// edge separately over unextracted packets: every learned figure must be
// equal, for every query, menu and seed. The queries are the oracle's plus
// synFinFlood, whose join hands down its left side's keys at every level.
func TestTrainMatchesReference(t *testing.T) {
	emptyRight := synFinFlood(40)
	qs := append(oracleQueries(), emptyRight)
	emptyRight.ID = uint16(len(qs))
	menus := [][]int{{8, 16, 24}, {8, 16}, {16, 24}, {4, 8, 12, 16, 20, 24, 28}}
	for _, seed := range []int64{1, 2} {
		windows := oracleWindows(t, seed)
		for _, menu := range menus {
			t.Run(fmt.Sprintf("seed%d/menu%v", seed, menu), func(t *testing.T) {
				t.Parallel() // each pair of trainings only reads the frames
				got, err := Train(qs, menu, windows)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refTrain(qs, menu, windows)
				if err != nil {
					t.Fatal(err)
				}
				if got.WindowPackets != want.WindowPackets {
					t.Errorf("WindowPackets = %d, reference %d", got.WindowPackets, want.WindowPackets)
				}
				for level, keys := range want.PerQuery[emptyRight.ID].Satisfy {
					if len(keys) == 0 {
						t.Errorf("%s: nothing satisfies level %d: the empty right side vetoed the left side's keys", emptyRight.Name, level)
					}
				}
				gated := 0
				for _, q := range qs {
					g, w := got.PerQuery[q.ID], want.PerQuery[q.ID]
					compareTraining(t, q.Name, g, w)
					for k, e := range w.Edges {
						if k[0] != LevelStar && e.Left.NAtCut[len(e.Left.NAtCut)-1] > 0 {
							gated++
						}
					}
				}
				// The gates must admit something, or the gated edges compare
				// nothing but zeros.
				if gated == 0 {
					t.Error("no gated edge emits anything: the windows exercise no gate")
				}
			})
		}
	}
}

func compareTraining(t *testing.T, name string, got, want *QueryTraining) {
	t.Helper()
	if got.Refinable != want.Refinable || got.Key != want.Key {
		t.Fatalf("%s: key %+v/%v, reference %+v/%v", name, got.Key, got.Refinable, want.Key, want.Refinable)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"Levels", got.Levels, want.Levels},
		{"Th", got.Th, want.Th},
		{"Satisfy", got.Satisfy, want.Satisfy},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s = %v, reference %v", name, c.what, c.got, c.want)
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Errorf("%s: %d edges, reference %d", name, len(got.Edges), len(want.Edges))
	}
	for k, we := range want.Edges {
		ge, ok := got.Edges[k]
		if !ok {
			t.Errorf("%s: edge %v missing", name, k)
			continue
		}
		if ge.Prev != we.Prev || ge.Level != we.Level {
			t.Errorf("%s: edge %v is {%d,%d}", name, k, ge.Prev, ge.Level)
		}
		for _, s := range []struct {
			side      string
			got, want *SideCost
		}{{"left", ge.Left, we.Left}, {"right", ge.Right, we.Right}} {
			if (s.got == nil) != (s.want == nil) {
				t.Errorf("%s: edge %v %s side present %v, reference %v", name, k, s.side, s.got != nil, s.want != nil)
				continue
			}
			if s.got == nil {
				continue
			}
			if want := s.want.Pipe.ValidPartitionPoints(); !reflect.DeepEqual(s.got.Cuts, want) {
				t.Errorf("%s: edge %v %s Cuts = %v, reference %v", name, k, s.side, s.got.Cuts, want)
			}
			if !reflect.DeepEqual(s.got.NAtCut, s.want.NAtCut) {
				t.Errorf("%s: edge %v %s NAtCut = %v, reference %v", name, k, s.side, s.got.NAtCut, s.want.NAtCut)
			}
			if !reflect.DeepEqual(s.got.KeysAt, s.want.KeysAt) {
				t.Errorf("%s: edge %v %s KeysAt = %v, reference %v", name, k, s.side, s.got.KeysAt, s.want.KeysAt)
			}
			if s.got.Work != s.want.Work {
				t.Errorf("%s: edge %v %s Work = %d, reference %d", name, k, s.side, s.got.Work, s.want.Work)
			}
			if !reflect.DeepEqual(s.got.Pipe, s.want.Pipe) {
				t.Errorf("%s: edge %v %s Pipe differs", name, k, s.side)
			}
		}
	}
}

// TestTrainLadderHasNoSelfEdge: a level the menu repeats is trained once,
// and no edge gates a level on its own satisfying set.
func TestTrainLadderHasNoSelfEdge(t *testing.T) {
	windows := trainingWindows(t, 1, 3000)
	tr, err := Train([]*query.Query{q1(100)}, []int{16, 8, 8, 16}, windows)
	if err != nil {
		t.Fatal(err)
	}
	qt := tr.PerQuery[1]
	if !reflect.DeepEqual(qt.Levels, []int{8, 16, 32}) {
		t.Errorf("levels = %v, want [8 16 32]", qt.Levels)
	}
	if len(qt.Edges) != 6 {
		t.Errorf("%d edges, want 3 ungated + 3 gated", len(qt.Edges))
	}
	for k, e := range qt.Edges {
		if e.Prev == e.Level {
			t.Errorf("edge %v gates level %d on itself", k, e.Level)
		}
	}
}

// TestTrainSameAtAnyWorkerCount: Train parses windows and trains queries on
// up to GOMAXPROCS workers, each with its own profiler and scratch over the
// shared read-only batches, so one worker and four must learn the same,
// figure for figure, on either seed. Under -race, four workers over the
// oracle's thirteen queries also show that they share nothing writable.
func TestTrainSameAtAnyWorkerCount(t *testing.T) {
	qs := oracleQueries()
	for _, seed := range []int64{1, 2} {
		windows := oracleWindows(t, seed)
		var got [2]*TrainingResult
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			tr, err := Train(qs, DefaultMenu, windows)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = tr
		}
		if len(got[0].PerQuery) != len(qs) {
			t.Fatalf("seed %d: %d queries trained, want %d", seed, len(got[0].PerQuery), len(qs))
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			for _, q := range qs {
				compareTraining(t, fmt.Sprintf("seed %d: %s", seed, q.Name), got[1].PerQuery[q.ID], got[0].PerQuery[q.ID])
			}
			t.Errorf("seed %d: training at GOMAXPROCS 4 differs from GOMAXPROCS 1", seed)
		}
	}
}
