package subscribe_test

import (
	"encoding/hex"
	"net"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/netproto"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
)

// TestSubscribeDifferential is the delivery-path correctness contract: N
// concurrent ON_CHANGE subscribers over real TCP each observe the exact
// per-window notify sequence, bit-identical to what the sequential runtime
// publishes, regardless of the worker count — because the runtime's merged
// reports are bit-identical and the server encodes each update exactly once.
// A dial-out collector with the same request is one more such subscriber.
// Each run also carries a deliberately stalled subscriber (disconnect
// policy, tiny queue, never reads): it must be evicted without delaying
// window close, which the publish-time histogram bounds. A last run with
// only the dial-out collector checks its bytes reach the flight recorder.
func TestSubscribeDifferential(t *testing.T) {
	scale := eval.SmallScale()
	w, err := eval.NewWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	qs := queries.All(eval.ScaledParams(scale))
	tr, err := planner.Train(qs, []int{8, 16, 24}, w.TrainingFrames())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisa.DefaultConfig()
	plan, err := planner.PlanQueries(tr, qs, cfg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	req := subscribe.SubscribeRequest{Mode: subscribe.OnChange, AllLevels: true,
		QueueCap: 4096, Policy: subscribe.Disconnect}
	const nSubs = 3
	run := func(workers int) [][]string {
		rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		rt.Instrument(reg, nil)
		srv := subscribe.NewServer()
		srv.Instrument(reg)
		rt.SetResultSink(srv)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go srv.Serve(ln)

		type subResult struct {
			idx    int
			frames []string
		}
		results := make(chan subResult, nSubs)
		for i := 0; i < nSubs; i++ {
			cl, nc, err := subscribe.Dial(ln.Addr().String(), req)
			if err != nil {
				t.Fatal(err)
			}
			go func(idx int) {
				defer nc.Close()
				var fs []string
				for {
					b, err := cl.RecvRaw()
					if err != nil {
						break
					}
					fs = append(fs, hex.EncodeToString(b))
				}
				results <- subResult{idx, fs}
			}(i)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.Snapshot().Active < nSubs {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d subscribers attached", srv.Snapshot().Active, nSubs)
			}
			time.Sleep(time.Millisecond)
		}
		dialedOut := collector(t, srv, req)

		// The saboteur: never reads, asks to be disconnected on overflow.
		stalled, _ := net.Pipe()
		defer stalled.Close()
		if _, err := srv.Attach(stalled, subscribe.SubscribeRequest{
			Mode: subscribe.Sample, AllLevels: true,
			Policy: subscribe.Disconnect, QueueCap: 2}); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < w.Gen.Windows(); i++ {
			rt.ProcessWindow(w.Frames(i))
		}
		srv.Close()

		snap := reg.Snapshot()
		if ev := snap.Counters["sonata_subscribe_evictions_total"]; ev != 1 {
			t.Errorf("workers=%d: evictions_total = %d, want exactly 1 (the stalled subscriber)",
				workers, ev)
		}
		// The latency contract: publishing (including the eviction) must
		// never hold a window close hostage to a dead consumer. A blocked
		// write on the stalled pipe would park here for the full test
		// timeout; bound the whole run's publish time instead.
		if pub := snap.Histograms["sonata_runtime_publish_ns"]; pub.Count == 0 {
			t.Errorf("workers=%d: publish histogram never observed", workers)
		} else if pub.Sum > uint64(5*time.Second) {
			t.Errorf("workers=%d: cumulative publish time %v across %d windows; eviction is delaying window close",
				workers, time.Duration(pub.Sum), pub.Count)
		}

		collected := make([][]string, nSubs, nSubs+1)
		for i := 0; i < nSubs; i++ {
			r := <-results
			collected[r.idx] = r.frames
		}
		return append(collected, <-dialedOut)
	}

	want := run(0) // sequential baseline
	if len(want[0]) == 0 {
		t.Fatal("sequential run delivered no frames")
	}
	for i := 1; i <= nSubs; i++ {
		if !equalSeq(want[i], want[0]) {
			t.Fatalf("sequential subscribers diverged: sub0 got %d frames, sub%d got %d",
				len(want[0]), i, len(want[i]))
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got := run(workers)
		for i := 0; i <= nSubs; i++ {
			if !equalSeq(got[i], want[0]) {
				t.Errorf("workers=%d subscriber %d: frame sequence diverged from sequential (%d vs %d frames)",
					workers, i, len(got[i]), len(want[0]))
				for j := 0; j < len(got[i]) && j < len(want[0]); j++ {
					if got[i][j] != want[0][j] {
						t.Errorf("  first divergence at frame %d:\n    sequential %s\n    workers=%d %s",
							j, want[0][j], workers, got[i][j])
						break
					}
				}
				break
			}
		}
	}

	// Only the dial-out collector attached: its deliveries are attributed to
	// the flight recorder like any subscriber's.
	rt, err := runtime.NewWithOptions(plan, cfg, runtime.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := flightrec.New(w.Gen.Windows(), nil)
	rt.AttachFlightRecorder(rec)
	srv := subscribe.NewServer()
	rt.SetResultSink(srv)
	dialedOut := collector(t, srv, req)
	for i := 0; i < w.Gen.Windows(); i++ {
		rt.ProcessWindow(w.Frames(i))
	}
	srv.Close()
	rt.Close()
	if len(<-dialedOut) == 0 {
		t.Error("dial-out collector received nothing")
	}
	snap := rec.Snapshot(w.Gen.Windows())
	var deliv uint64
	for _, rs := range append(snap.History, snap.Queries) {
		for _, r := range rs {
			deliv += r.DeliveredBytes
		}
	}
	if deliv == 0 {
		t.Error("delivered_bytes = 0 with a dial-out collector attached")
	}
}

// collector attaches a dial-out subscriber to srv and serves its collector
// side, returning the notify bodies (hex) it received once srv hangs up.
func collector(t *testing.T, srv *subscribe.Server, req subscribe.SubscribeRequest) <-chan []string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []string, 1)
	go func() {
		defer ln.Close()
		var fs []string
		if nc, err := ln.Accept(); err == nil {
			pc := netproto.NewConn(nc)
			var hello netproto.Hello
			if pc.Expect(netproto.MsgHello, &hello) == nil {
				for {
					typ, b, err := pc.RecvRaw()
					if err != nil {
						break
					}
					if typ == netproto.MsgNotify {
						fs = append(fs, hex.EncodeToString(b))
					}
				}
			}
			nc.Close()
		}
		got <- fs
	}()
	if _, err := srv.DialOut(ln.Addr().String(), req); err != nil {
		t.Fatal(err)
	}
	return got
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
