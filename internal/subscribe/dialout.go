package subscribe

import (
	"context"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/netproto"
)

// Dial-out reconnect bounds: each dial gives up after dialTimeout, and the
// wait before the next one starts at minBackoff and doubles up to
// maxBackoff.
const (
	dialTimeout = 2 * time.Second
	minBackoff  = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// DialOut is the reverse of Serve: instead of a collector subscribing in,
// the server pushes to one at addr — gNMI's dial-out telemetry. The
// collector is an ordinary subscriber with request req, whose transport
// the server owns: it redials addr whenever the connection is down, opening
// each connection with MsgHello. While the collector is unreachable the
// subscriber's writer waits, so its queue and eviction policy buffer the
// outage and Publish never blocks. Returns the subscriber id for Detach.
func (s *Server) DialOut(addr string, req SubscribeRequest) (uint64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &redialer{addr: addr, s: s, ctx: ctx, cancel: cancel}
	sub, err := s.attach(r, req)
	if err != nil {
		cancel()
		return 0, err
	}
	go s.writer(sub)
	return sub.id, nil
}

// redialer is a dial-out subscriber's transport. netproto writes each frame
// in one Write, so a frame whose write fails is resent whole on the next
// connection. Close, or a write deadline (Close's bounded flush), ends the
// redialing: the live connection may still finish writing, but once it
// fails Write returns an error instead of waiting for the collector.
type redialer struct {
	addr   string
	s      *Server // counts reconnects
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	conn net.Conn // nil while the collector is down
}

// Write retries p until it is on the wire. The live connection is only
// missing on the very first call, so every retry redials: each counts as a
// reconnect.
func (r *redialer) Write(p []byte) (int, error) {
	for backoff := minBackoff; ; backoff = min(2*backoff, maxBackoff) {
		conn, err := r.connect()
		if err == nil {
			if _, err = conn.Write(p); err == nil {
				return len(p), nil
			}
			r.mu.Lock()
			r.conn = nil
			r.mu.Unlock()
			conn.Close()
		}
		select {
		case <-time.After(backoff):
		case <-r.ctx.Done():
			return 0, err
		}
		r.s.m.reconnects.Inc()
	}
}

// connect returns the live connection, dialing a new one when there is
// none.
func (r *redialer) connect() (net.Conn, error) {
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(r.ctx, "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	if err := netproto.NewConn(conn).Send(netproto.MsgHello, &netproto.Hello{Version: netproto.ProtocolVersion}); err != nil {
		conn.Close()
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ctx.Err(); err != nil { // ended while dialing
		conn.Close()
		return nil, err
	}
	r.conn = conn
	return conn, nil
}

// SetWriteDeadline ends the redialing and bounds writes on the live
// connection.
func (r *redialer) SetWriteDeadline(t time.Time) error {
	return r.end(func(c net.Conn) error { return c.SetWriteDeadline(t) })
}

// Close ends the redialing and closes the live connection, unblocking a
// Write in progress.
func (r *redialer) Close() error { return r.end(net.Conn.Close) }

// end cancels the redialing, then applies f to the live connection if any.
func (r *redialer) end(f func(net.Conn) error) error {
	r.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return nil
	}
	return f(r.conn)
}

// Collect serves one dial-out connection on the collector side: it expects
// the opening MsgHello, then decodes every MsgNotify into handler until the
// peer disconnects. A clean EOF returns nil.
func Collect(conn net.Conn, handler func(Update)) error {
	pc := netproto.NewConn(conn)
	var hello netproto.Hello
	if err := pc.Expect(netproto.MsgHello, &hello); err != nil {
		return err
	}
	for {
		t, body, err := pc.RecvRaw()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if t != netproto.MsgNotify {
			continue
		}
		u, err := DecodeUpdate(body)
		if err != nil {
			return err
		}
		handler(u)
	}
}
