// Package netproto implements the control-plane protocol between Sonata's
// runtime and its drivers — the role the Thrift API plays in the paper's
// implementation (Section 5). Messages are gob-encoded structs behind a
// length-prefixed frame with a type byte, carried over any net.Conn.
//
// The protocol is deliberately small: capability discovery, program
// installation, dynamic filter-table updates, and end-of-window register
// collection. The packet fast path never crosses this channel; only
// control operations do, exactly as in the paper's architecture.
package netproto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/pisa"
	"repro/internal/telemetry"
)

// MsgType tags each frame.
type MsgType uint8

const (
	// MsgError carries a string error back to the caller.
	MsgError MsgType = iota
	// MsgHello / MsgCapabilities negotiate and report switch constraints.
	MsgHello
	MsgCapabilities
	// MsgInstall ships a compiled program to the data plane.
	MsgInstall
	MsgInstallOK
	// MsgUpdateTable replaces a dynamic filter's entries.
	MsgUpdateTable
	MsgUpdateOK
	// MsgEndWindow closes the switch window; MsgWindowData returns dumps
	// and stats.
	MsgEndWindow
	MsgWindowData
	// MsgSubscribe opens a streaming result subscription (gNMI-style);
	// MsgSubscribeOK acknowledges it with the assigned subscriber id.
	MsgSubscribe
	MsgSubscribeOK
	// MsgNotify carries one (query, level) window update to a subscriber.
	// Unlike the request/response pairs above it is one-way: the server (or
	// a dial-out client) streams notify frames without awaiting acks, so the
	// result path never blocks on a round trip.
	MsgNotify
)

// lastMsgType is the highest defined message type; Instrument registers one
// RTT series per type up to here.
const lastMsgType = MsgNotify

func (t MsgType) String() string {
	switch t {
	case MsgError:
		return "error"
	case MsgHello:
		return "hello"
	case MsgCapabilities:
		return "capabilities"
	case MsgInstall:
		return "install"
	case MsgInstallOK:
		return "install-ok"
	case MsgUpdateTable:
		return "update-table"
	case MsgUpdateOK:
		return "update-ok"
	case MsgEndWindow:
		return "end-window"
	case MsgWindowData:
		return "window-data"
	case MsgSubscribe:
		return "subscribe"
	case MsgSubscribeOK:
		return "subscribe-ok"
	case MsgNotify:
		return "notify"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// maxFrame bounds a control frame; programs and dumps stay far below this.
const maxFrame = 64 << 20

// Hello is the client's opening message.
type Hello struct {
	Version int
}

// ProtocolVersion is bumped on incompatible changes.
const ProtocolVersion = 1

// UpdateTable names a dynamic filter and its replacement entries.
type UpdateTable struct {
	QID   uint16
	Level uint8
	Side  pisa.Side
	OpIdx int
	Keys  []string
}

// UpdateResult reports entries written.
type UpdateResult struct {
	Entries int
}

// WindowData carries the end-of-window register dumps and stats.
type WindowData struct {
	Dumps []pisa.RegDump
	Stats pisa.WindowStats
}

// ErrorMsg carries a remote failure.
type ErrorMsg struct {
	Text string
}

// maxMsgType bounds the per-type metric arrays; message types are small
// consecutive constants.
const maxMsgType = 16

// connMetrics holds a connection's telemetry handles, pre-registered per
// message type so the control path never does a map lookup to count.
type connMetrics struct {
	framesSent *telemetry.Counter
	framesRecv *telemetry.Counter
	bytesSent  *telemetry.Counter
	bytesRecv  *telemetry.Counter
	rtt        [maxMsgType]*telemetry.Histogram
}

// Conn frames gob messages over an io.ReadWriter.
type Conn struct {
	rw io.ReadWriter
	m  connMetrics
	// wbuf assembles each outgoing frame (header and body) for one Write.
	wbuf []byte
}

// NewConn wraps a transport.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// Instrument registers the connection's metrics against reg (nil
// disables): frames and bytes in each direction, plus a round-trip-time
// histogram per request type (observed by Call).
func (c *Conn) Instrument(reg *telemetry.Registry) {
	c.m = connMetrics{
		framesSent: reg.Counter("sonata_netproto_frames_sent_total",
			"Control-plane frames written."),
		framesRecv: reg.Counter("sonata_netproto_frames_recv_total",
			"Control-plane frames read."),
		bytesSent: reg.Counter("sonata_netproto_bytes_sent_total",
			"Control-plane bytes written (headers and payloads)."),
		bytesRecv: reg.Counter("sonata_netproto_bytes_recv_total",
			"Control-plane bytes read (headers and payloads)."),
	}
	if reg == nil {
		return
	}
	for t := MsgType(0); t <= lastMsgType; t++ {
		c.m.rtt[t] = reg.Histogram("sonata_netproto_rtt_ns",
			"Round-trip time of one control request in nanoseconds.",
			telemetry.DurationBuckets, "type", t.String())
	}
}

// Call sends one request frame and waits for the expected response,
// decoding its payload into out (which may be nil). The round trip is
// timed into the per-request-type histogram when instrumented.
func (c *Conn) Call(t MsgType, payload any, want MsgType, out any) error {
	start := time.Now()
	if err := c.Send(t, payload); err != nil {
		return err
	}
	if err := c.Expect(want, out); err != nil {
		return err
	}
	if t < maxMsgType {
		c.m.rtt[t].ObserveDuration(time.Since(start))
	}
	return nil
}

// Send writes one frame: u32 length | u8 type | gob payload.
func (c *Conn) Send(t MsgType, payload any) error {
	var body bytes.Buffer
	if payload != nil {
		if err := gob.NewEncoder(&body).Encode(payload); err != nil {
			return fmt.Errorf("netproto: encoding %v: %w", t, err)
		}
	}
	return c.SendRaw(t, body.Bytes())
}

// SendRaw writes one frame whose body is already encoded. This is the
// fan-out fast path: a subscription server encodes an update once and writes
// the same body to every subscriber without re-serializing. The frame goes
// out in a single Write from the connection's reusable buffer, so a reader
// of the transport never observes a header without its body, and the steady
// state allocates nothing. Like every write on a Conn it is not safe for
// concurrent use.
func (c *Conn) SendRaw(t MsgType, body []byte) error {
	frame := append(c.wbuf[:0], 0, 0, 0, 0, byte(t))
	binary.BigEndian.PutUint32(frame, uint32(len(body)+1))
	frame = append(frame, body...)
	c.wbuf = frame
	if _, err := c.rw.Write(frame); err != nil {
		return fmt.Errorf("netproto: writing %v frame: %w", t, err)
	}
	c.m.framesSent.Inc()
	c.m.bytesSent.Add(uint64(len(frame)))
	return nil
}

// RecvRaw reads one frame, returning its type and undecoded payload. A
// MsgError frame is surfaced as a Go error (with the type still returned).
func (c *Conn) RecvRaw() (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("netproto: bad frame length %d", n)
	}
	t := MsgType(hdr[4])
	body := make([]byte, n-1)
	if _, err := io.ReadFull(c.rw, body); err != nil {
		return t, nil, fmt.Errorf("netproto: reading %v body: %w", t, io.ErrUnexpectedEOF)
	}
	c.m.framesRecv.Inc()
	c.m.bytesRecv.Add(uint64(len(hdr) + len(body)))
	if t == MsgError {
		var e ErrorMsg
		if err := Decode(body, &e); err != nil {
			return t, nil, fmt.Errorf("netproto: undecodable remote error: %w", err)
		}
		return t, nil, fmt.Errorf("netproto: remote error: %s", e.Text)
	}
	return t, body, nil
}

// Decode unmarshals a frame payload.
func Decode(body []byte, out any) error {
	if len(body) == 0 {
		return nil
	}
	return gob.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// Recv reads one frame and decodes its payload into out (which may be nil
// for payload-less messages).
func (c *Conn) Recv(out any) (MsgType, error) {
	t, body, err := c.RecvRaw()
	if err != nil {
		return t, err
	}
	if out != nil {
		if err := Decode(body, out); err != nil {
			return t, fmt.Errorf("netproto: decoding %v: %w", t, err)
		}
	}
	return t, nil
}

// Expect receives and verifies the message type.
func (c *Conn) Expect(want MsgType, out any) error {
	got, err := c.Recv(out)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("netproto: got %v, want %v", got, want)
	}
	return nil
}

// SendError reports a failure to the peer.
func (c *Conn) SendError(err error) error {
	return c.Send(MsgError, &ErrorMsg{Text: err.Error()})
}
