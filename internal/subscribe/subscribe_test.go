package subscribe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/netproto"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// fakeReport fabricates a window report with two queries and one coarse
// refinement level; seed varies the payload so consecutive windows differ.
func fakeReport(index int, seed uint64) *runtime.WindowReport {
	all := []stream.Result{
		{QID: 1, Level: 8, Schema: tuple.Schema{fields.SrcIP},
			Tuples: [][]tuple.Value{{{U: seed}}}},
		{QID: 1, Level: 32, Schema: tuple.Schema{fields.SrcIP, fields.DstPort},
			Tuples: [][]tuple.Value{
				{{U: seed}, {U: 443}},
				{{S: fmt.Sprintf("host-%d", seed), Str: true}, {U: 80}},
			}},
		{QID: 2, Level: 16, Schema: tuple.Schema{fields.DstIP},
			Tuples: [][]tuple.Value{{{U: seed * 3}}}},
	}
	finest := []stream.Result{all[1], all[2]}
	return &runtime.WindowReport{Index: index, Results: finest, AllResults: all}
}

func TestCodecRoundTrip(t *testing.T) {
	rep := fakeReport(7, 42)
	for i := range rep.AllResults {
		res := &rep.AllResults[i]
		key := stream.QueryKey{QID: res.QID, Level: res.Level}
		buf := appendHeader(nil, rep.Index, key)
		buf = appendResult(buf, res)
		u, err := DecodeUpdate(buf)
		if err != nil {
			t.Fatalf("decode q%d/%d: %v", res.QID, res.Level, err)
		}
		if u.Window != 7 || u.QID != res.QID || u.Level != res.Level {
			t.Errorf("header round-trip = %d/q%d/%d, want 7/q%d/%d",
				u.Window, u.QID, u.Level, res.QID, res.Level)
		}
		if !reflect.DeepEqual(u.Schema, res.Schema) {
			t.Errorf("schema round-trip = %v, want %v", u.Schema, res.Schema)
		}
		if !reflect.DeepEqual(u.Tuples, res.Tuples) {
			t.Errorf("tuples round-trip = %v, want %v", u.Tuples, res.Tuples)
		}
	}

	// An empty result survives too.
	empty := stream.Result{QID: 3, Level: 24}
	buf := appendHeader(nil, 0, stream.QueryKey{QID: 3, Level: 24})
	buf = appendResult(buf, &empty)
	if u, err := DecodeUpdate(buf); err != nil || len(u.Tuples) != 0 {
		t.Errorf("empty result round-trip: %v, %v", u, err)
	}

	// Truncations and garbage must error, not panic or hang.
	full := appendResult(appendHeader(nil, 1, stream.QueryKey{QID: 1, Level: 32}),
		&rep.AllResults[1])
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeUpdate(full[:cut]); err == nil {
			t.Errorf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
	if _, err := DecodeUpdate(append(append([]byte{}, full...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

// TestFingerprintIgnoresWindowHeader: the same payload in different windows
// must fingerprint equal (that is what makes OnChange dedup across windows
// work), while a payload change must move the fingerprint.
func TestFingerprintIgnoresWindowHeader(t *testing.T) {
	res := &fakeReport(0, 5).AllResults[1]
	key := stream.QueryKey{QID: res.QID, Level: res.Level}

	fpOf := func(window int, r *stream.Result) uint64 {
		b := appendHeader(nil, window, key)
		off := len(b)
		b = appendResult(b, r)
		return fingerprint(b[off:])
	}
	if fpOf(1, res) != fpOf(2, res) {
		t.Error("fingerprint depends on the window header")
	}
	other := &fakeReport(0, 6).AllResults[1]
	if fpOf(1, res) == fpOf(1, other) {
		t.Error("fingerprint blind to payload change")
	}
}

// collectWriter records every notify frame body. SendRaw issues one write
// per frame, so a snapshot of the stream always ends on a frame boundary.
type collectWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *collectWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// frames parses the accumulated stream into notify bodies.
func (w *collectWriter) frames(t *testing.T) [][]byte {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var out [][]byte
	data := w.buf.Bytes()
	for len(data) > 0 {
		if len(data) < 5 {
			t.Fatalf("trailing partial frame header (%d bytes)", len(data))
		}
		n := int(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
		if data[4] != byte(netproto.MsgNotify) {
			t.Fatalf("unexpected frame type %d", data[4])
		}
		if len(data) < 4+n {
			t.Fatalf("partial frame body")
		}
		out = append(out, data[5:4+n])
		data = data[4+n:]
	}
	return out
}

// waitFrames polls until the writer holds want complete frames.
func (w *collectWriter) waitFrames(t *testing.T, want int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs := w.frames(t)
		if len(fs) >= want {
			return fs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames, have %d", want, len(fs))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOnChangeDedupAndInitialSync(t *testing.T) {
	s := NewServer()
	defer s.Close()
	a := &collectWriter{}
	if _, err := s.Attach(a, SubscribeRequest{Mode: OnChange, AllLevels: true}); err != nil {
		t.Fatal(err)
	}

	s.Publish(fakeReport(0, 1)) // first window: everything is a change
	a.waitFrames(t, 3)
	s.Publish(fakeReport(1, 1)) // identical payloads: nothing delivered
	s.Publish(fakeReport(2, 2)) // all three instances change
	fs := a.waitFrames(t, 6)
	if len(fs) != 6 {
		t.Fatalf("on-change subscriber got %d frames, want 6", len(fs))
	}
	for _, f := range fs {
		if _, err := DecodeUpdate(f); err != nil {
			t.Fatalf("delivered frame undecodable: %v", err)
		}
	}

	// A late joiner gets the retained state of window 2 as initial sync.
	b := &collectWriter{}
	if _, err := s.Attach(b, SubscribeRequest{Mode: OnChange, AllLevels: true}); err != nil {
		t.Fatal(err)
	}
	sync := b.waitFrames(t, 3)
	for _, f := range sync {
		u, err := DecodeUpdate(f)
		if err != nil || u.Window != 2 {
			t.Fatalf("initial sync frame = window %d (err %v), want 2", u.Window, err)
		}
	}

	// Finest-only subscriber never sees the /8 instance.
	c := &collectWriter{}
	if _, err := s.Attach(c, SubscribeRequest{Mode: OnChange}); err != nil {
		t.Fatal(err)
	}
	s.Publish(fakeReport(3, 3))
	for _, f := range c.waitFrames(t, 2+2) { // 2 sync + 2 changed finest
		u, err := DecodeUpdate(f)
		if err != nil {
			t.Fatal(err)
		}
		if u.QID == 1 && u.Level == 8 {
			t.Error("finest-only subscriber received a coarse-level update")
		}
	}
}

func TestSampleIntervalPacing(t *testing.T) {
	s := NewServer()
	defer s.Close()
	every := &collectWriter{}
	slow := &collectWriter{}
	if _, err := s.Attach(every, SubscribeRequest{Mode: Sample, AllLevels: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Attach(slow, SubscribeRequest{Mode: Sample, AllLevels: true,
		SampleInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Publish(fakeReport(i, 1)) // identical payloads: Sample still delivers
	}
	if fs := every.waitFrames(t, 12); len(fs) != 12 {
		t.Errorf("interval-0 sampler got %d frames, want 12 (3 per window)", len(fs))
	}
	// The one-hour sampler saw exactly the first window.
	time.Sleep(20 * time.Millisecond)
	if fs := slow.frames(t); len(fs) != 3 {
		t.Errorf("slow sampler got %d frames, want 3 (first window only)", len(fs))
	}
}

func TestTargetDefinedSplitsByLevel(t *testing.T) {
	s := NewServer()
	defer s.Close()
	w := &collectWriter{}
	if _, err := s.Attach(w, SubscribeRequest{Mode: TargetDefined, AllLevels: true}); err != nil {
		t.Fatal(err)
	}
	// Same payload twice: finest levels (OnChange) dedup, the coarse /8
	// level (Sample, interval 0) is delivered both times.
	s.Publish(fakeReport(0, 1))
	s.Publish(fakeReport(1, 1))
	fs := w.waitFrames(t, 4)
	time.Sleep(20 * time.Millisecond)
	fs = w.frames(t)
	coarse, finest := 0, 0
	for _, f := range fs {
		u, err := DecodeUpdate(f)
		if err != nil {
			t.Fatal(err)
		}
		if u.QID == 1 && u.Level == 8 {
			coarse++
		} else {
			finest++
		}
	}
	if coarse != 2 || finest != 2 {
		t.Errorf("target-defined delivered coarse=%d finest=%d, want 2 and 2", coarse, finest)
	}
}

// TestPublishNeverBlocks is the eviction contract: a subscriber that never
// reads (net.Pipe with no reader, so its writer goroutine stalls mid-write)
// must not delay Publish. Disconnect evicts it; DropOldest recycles its
// queue in place. 200 windows against a dead consumer must finish promptly.
func TestPublishNeverBlocks(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.Instrument(reg)
	defer s.Close()

	stalledD, _ := net.Pipe() // reader side discarded: writes block forever
	if _, err := s.Attach(stalledD, SubscribeRequest{Mode: Sample, AllLevels: true,
		Policy: Disconnect, QueueCap: 2}); err != nil {
		t.Fatal(err)
	}
	stalledO, _ := net.Pipe()
	if _, err := s.Attach(stalledO, SubscribeRequest{Mode: Sample, AllLevels: true,
		Policy: DropOldest, QueueCap: 2}); err != nil {
		t.Fatal(err)
	}
	healthy := &collectWriter{}
	if _, err := s.Attach(healthy, SubscribeRequest{Mode: Sample, AllLevels: true,
		QueueCap: 1024}); err != nil {
		t.Fatal(err)
	}

	const windows = 200
	start := time.Now()
	for i := 0; i < windows; i++ {
		s.Publish(fakeReport(i, uint64(i)))
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Errorf("publishing %d windows against stalled subscribers took %v; the close path is being blocked", windows, elapsed)
	}

	snap := reg.Snapshot()
	if ev := snap.Counters["sonata_subscribe_evictions_total"]; ev != 1 {
		t.Errorf("evictions_total = %d, want exactly 1 (the disconnect-policy subscriber)", ev)
	}
	if dr := snap.Counters["sonata_subscribe_dropped_total"]; dr < windows*3-10 {
		t.Errorf("dropped_total = %d, want near %d (drop-oldest churns every enqueue)", dr, windows*3)
	}
	// The healthy subscriber is unaffected by its neighbors' stalls.
	if fs := healthy.waitFrames(t, windows*3); len(fs) != windows*3 {
		t.Errorf("healthy subscriber got %d frames, want %d", len(fs), windows*3)
	}
	if got := snap.Gauges["sonata_subscribe_active"]; got != 2 {
		t.Errorf("active = %d after one eviction of three, want 2", got)
	}
}

func TestDebugSubscribersEndpoint(t *testing.T) {
	s := NewServer()
	defer s.Close()
	w := &collectWriter{}
	if _, err := s.Attach(w, SubscribeRequest{Mode: OnChange, Queries: []uint16{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Attach(&collectWriter{}, SubscribeRequest{Mode: Sample,
		SampleInterval: time.Second, Policy: Disconnect, AllLevels: true}); err != nil {
		t.Fatal(err)
	}
	s.Publish(fakeReport(0, 1))
	time.Sleep(20 * time.Millisecond)

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/subscribers", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("endpoint JSON undecodable: %v\n%s", err, rr.Body.String())
	}
	if snap.Active != 2 || len(snap.Subscribers) != 2 {
		t.Fatalf("snapshot active=%d subs=%d, want 2/2", snap.Active, len(snap.Subscribers))
	}
	if snap.Subscribers[0].ID >= snap.Subscribers[1].ID {
		t.Error("subscribers not ordered by id")
	}
	first := snap.Subscribers[0]
	if first.Mode != "on-change" || len(first.Queries) != 1 || first.Queries[0] != 1 {
		t.Errorf("first subscriber rendered %+v", first)
	}
	if second := snap.Subscribers[1]; second.SampleInterval != "1s" || second.Policy != "disconnect" {
		t.Errorf("second subscriber rendered %+v", second)
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/subscribers?fmt=text", nil))
	text := rr.Body.String()
	for _, want := range []string{"MODE", "on-change", "disconnect", "2 subscriber(s)"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

// TestHandleConnLifecycle drives the wire protocol end to end over TCP: the
// handshake acks before any notify, updates arrive decoded, and the server's
// graceful Close flushes queued frames before the transport drops.
func TestHandleConnLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.Instrument(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.Serve(ln)

	cl, nc, err := Dial(ln.Addr().String(), SubscribeRequest{Mode: OnChange, AllLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if cl.ID == 0 {
		t.Error("handshake assigned id 0")
	}

	// Wait for the server-side attach before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}

	s.Publish(fakeReport(0, 9))
	for i := 0; i < 3; i++ {
		u, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if u.Window != 0 {
			t.Errorf("update %d from window %d, want 0", i, u.Window)
		}
	}

	// Close flushes: publish one more window, close immediately, and the
	// subscriber still receives every frame before EOF.
	s.Publish(fakeReport(1, 10))
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	got := 0
	for {
		if _, err := cl.Recv(); err != nil {
			break
		}
		got++
	}
	if got != 3 {
		t.Errorf("received %d frames after Close, want the 3 queued before it", got)
	}
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
	if acc := reg.Snapshot().Counters["sonata_subscribe_accepted_total"]; acc != 1 {
		t.Errorf("accepted_total = %d, want 1", acc)
	}
}

func TestDialOutReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	var got []Update
	conns := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- c
			go Collect(c, func(u Update) {
				mu.Lock()
				got = append(got, u)
				mu.Unlock()
			})
		}
	}()

	reg := telemetry.NewRegistry()
	d := NewDialOut(ln.Addr().String(), DialOutOptions{
		MinBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	d.Instrument(reg)
	defer d.Close()

	countGot := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	waitGot := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for countGot() < want {
			if time.Now().After(deadline) {
				t.Fatalf("collector has %d updates, want %d", countGot(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	d.Publish(fakeReport(0, 1)) // 2 finest results
	waitGot(2)

	// Rude collector: kill the live connection, then publish more. The
	// exporter must redial and deliver the later windows.
	(<-conns).Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.Publish(fakeReport(1, 2))
		if countGot() >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no updates after collector drop; got %d", countGot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rc := reg.Snapshot().Counters["sonata_subscribe_dialout_reconnects_total"]; rc < 1 {
		t.Errorf("reconnects_total = %d, want >= 1", rc)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, u := range got {
		if u.QID == 1 && u.Level == 8 {
			t.Error("dial-out forwarded a coarse level without AllLevels")
		}
	}
}

// TestLintSubscribeMetrics: every series the package registers obeys the
// repo's naming rules.
func TestLintSubscribeMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.Instrument(reg)
	defer s.Close()
	d := NewDialOut("127.0.0.1:1", DialOutOptions{})
	d.Instrument(reg)
	defer d.Close()
	if problems := reg.Lint(); len(problems) != 0 {
		t.Errorf("subscribe metrics lint dirty: %q", problems)
	}
}
