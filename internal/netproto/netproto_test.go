package netproto

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/pisa"
	"repro/internal/tuple"
)

// duplex is an in-memory bidirectional buffer for single-threaded framing
// tests.
type duplex struct {
	buf bytes.Buffer
}

func (d *duplex) Read(p []byte) (int, error)  { return d.buf.Read(p) }
func (d *duplex) Write(p []byte) (int, error) { return d.buf.Write(p) }

func TestFramingRoundTrip(t *testing.T) {
	d := &duplex{}
	c := NewConn(d)
	want := UpdateTable{QID: 7, Level: 16, Side: pisa.SideRight, OpIdx: 2,
		Keys: []string{"a", "bb", ""}}
	if err := c.Send(MsgUpdateTable, &want); err != nil {
		t.Fatal(err)
	}
	var got UpdateTable
	if err := c.Expect(MsgUpdateTable, &got); err != nil {
		t.Fatal(err)
	}
	if got.QID != 7 || got.Level != 16 || got.Side != pisa.SideRight || len(got.Keys) != 3 {
		t.Errorf("got %+v", got)
	}
}

func TestEmptyPayloadFrames(t *testing.T) {
	d := &duplex{}
	c := NewConn(d)
	if err := c.Send(MsgEndWindow, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err := c.RecvRaw()
	if err != nil || typ != MsgEndWindow || len(body) != 0 {
		t.Fatalf("typ=%v body=%d err=%v", typ, len(body), err)
	}
}

// countingDuplex is a duplex that records each Write as the writer saw it.
type countingDuplex struct {
	duplex
	writes [][]byte
}

func (d *countingDuplex) Write(p []byte) (int, error) {
	d.writes = append(d.writes, append([]byte(nil), p...))
	return d.duplex.Write(p)
}

// TestOneWritePerFrame pins the framing contract readers of the transport
// rely on: every frame — gob payload, raw body, or no body at all — reaches
// the writer as exactly one Write holding header and body, so no reader can
// catch a header without its body. The zero-length body matters on
// synchronous transports (net.Pipe), where an empty second Write would block
// forever.
func TestOneWritePerFrame(t *testing.T) {
	d := &countingDuplex{}
	c := NewConn(d)
	body := bytes.Repeat([]byte{0xAB}, 300)
	sends := []struct {
		name string
		send func() error
		typ  MsgType
		body []byte // nil: whatever gob produced
	}{
		{"raw body", func() error { return c.SendRaw(MsgNotify, body) }, MsgNotify, body},
		{"empty raw body", func() error { return c.SendRaw(MsgNotify, nil) }, MsgNotify, []byte{}},
		{"gob payload", func() error { return c.Send(MsgUpdateOK, &UpdateResult{Entries: 3}) }, MsgUpdateOK, nil},
		{"no payload", func() error { return c.Send(MsgEndWindow, nil) }, MsgEndWindow, []byte{}},
		{"shorter raw body reusing the buffer", func() error { return c.SendRaw(MsgNotify, body[:7]) }, MsgNotify, body[:7]},
	}
	for i, s := range sends {
		if err := s.send(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(d.writes) != i+1 {
			t.Fatalf("%s: writer saw %d writes after %d frames", s.name, len(d.writes), i+1)
		}
		w := d.writes[i]
		if n := int(uint32(w[0])<<24|uint32(w[1])<<16|uint32(w[2])<<8|uint32(w[3])) + 4; n != len(w) {
			t.Errorf("%s: header says %d bytes, the write holds %d", s.name, n, len(w))
		}
		if MsgType(w[4]) != s.typ {
			t.Errorf("%s: type byte %d, want %v", s.name, w[4], s.typ)
		}
		if s.body != nil && !bytes.Equal(w[5:], s.body) {
			t.Errorf("%s: body %x, want %x", s.name, w[5:], s.body)
		}
	}
	// The stream still parses frame by frame.
	for _, s := range sends {
		typ, got, err := c.RecvRaw()
		if err != nil || typ != s.typ || (s.body != nil && !bytes.Equal(got, s.body)) {
			t.Fatalf("%s: read back typ=%v len=%d err=%v", s.name, typ, len(got), err)
		}
	}
}

func TestErrorFramesSurfaceAsErrors(t *testing.T) {
	d := &duplex{}
	c := NewConn(d)
	if err := c.SendError(io.ErrClosedPipe); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(nil); err == nil {
		t.Fatal("error frame not surfaced")
	}
}

func TestExpectMismatch(t *testing.T) {
	d := &duplex{}
	c := NewConn(d)
	c.Send(MsgHello, &Hello{Version: 1})
	if err := c.Expect(MsgCapabilities, nil); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestWindowDataWithTuples(t *testing.T) {
	d := &duplex{}
	c := NewConn(d)
	wd := WindowData{
		Dumps: []pisa.RegDump{{QID: 1, Level: 32, MergeOp: 2,
			KeyVals: []tuple.Value{tuple.U64(99), tuple.Str("x")}, Val: 5}},
		Stats: pisa.WindowStats{PacketsIn: 100, Mirrored: 3},
	}
	if err := c.Send(MsgWindowData, &wd); err != nil {
		t.Fatal(err)
	}
	var got WindowData
	if err := c.Expect(MsgWindowData, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Dumps) != 1 || got.Dumps[0].Val != 5 || !got.Dumps[0].KeyVals[1].Str {
		t.Errorf("dumps = %+v", got.Dumps)
	}
	if got.Stats.PacketsIn != 100 {
		t.Errorf("stats = %+v", got.Stats)
	}
}

func TestRejectsOversizedFrame(t *testing.T) {
	d := &duplex{}
	// Forge a header claiming a giant body.
	d.buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgHello)})
	c := NewConn(d)
	if _, _, err := c.RecvRaw(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTruncatedBody(t *testing.T) {
	d := &duplex{}
	c := NewConn(d)
	c.Send(MsgHello, &Hello{Version: 1})
	raw := d.buf.Bytes()
	short := &duplex{}
	short.buf.Write(raw[:len(raw)-2])
	if _, _, err := NewConn(short).RecvRaw(); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		c := NewConn(conn)
		var h Hello
		if err := c.Expect(MsgHello, &h); err != nil {
			done <- err
			return
		}
		done <- c.Send(MsgCapabilities, &pisa.Config{Stages: h.Version})
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewConn(conn)
	if err := c.Send(MsgHello, &Hello{Version: 9}); err != nil {
		t.Fatal(err)
	}
	var cfg pisa.Config
	if err := c.Expect(MsgCapabilities, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Stages != 9 {
		t.Errorf("echoed stages = %d", cfg.Stages)
	}
	if err := <-done; err != nil {
		t.Errorf("server: %v", err)
	}
}
