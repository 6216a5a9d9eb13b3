package subscribe

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/netproto"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tracez"
)

// DefaultQueueCap is the per-subscriber send-queue depth when the request
// leaves QueueCap zero: deep enough to ride out a transient stall, shallow
// enough that an evicted consumer's backlog is bounded.
const DefaultQueueCap = 64

// closeGrace bounds how long Close waits for a subscriber's writer to flush
// before forcing the transport shut.
const closeGrace = 2 * time.Second

// ErrClosed is returned by Attach/HandleConn after Close.
var ErrClosed = errors.New("subscribe: server closed")

// frameOverhead is the netproto frame header (u32 length | u8 type) that
// rides in front of every notify body on the wire.
const frameOverhead = 5

// frame is one encoded (query, level) window update, refcounted so the
// publisher, the retained last-state slot, and every subscriber queue share
// the same bytes. Frames are pooled; release recycles when the last
// reference drops. The count is plain (not atomic) by design: it is only
// touched under the server mutex (Publish, enqueue, drop-oldest) or by the
// single writer goroutine draining a queue, and writers release through
// Server.release which takes the mutex.
type frame struct {
	buf        []byte
	payloadOff int // header ends here; fingerprint covers buf[payloadOff:]
	fp         uint64
	key        stream.QueryKey
	window     int
	refs       int
}

// subscriber is one attached consumer: its request, its bounded queue, and
// the writer goroutine draining it.
type subscriber struct {
	id       uint64
	req      SubscribeRequest
	pc       *netproto.Conn
	closer   io.Closer      // underlying transport, when it can be closed
	deadline writeDeadliner // non-nil when the transport supports write deadlines

	q    chan *frame
	done chan struct{} // closed when the writer goroutine exits

	// lastSamp paces Sample-mode delivery per (query, level); touched only
	// under the server mutex (the publish path).
	lastSamp map[stream.QueryKey]time.Time

	// Stats below are written under the server mutex; the debug endpoint
	// reads them the same way.
	evicted   bool
	highwater int
	delivered uint64
	dropped   uint64
}

// matches reports whether the subscriber's filter admits the instance.
func (sub *subscriber) matches(key stream.QueryKey, isFinest bool) bool {
	if !sub.req.AllLevels && !isFinest {
		return false
	}
	if len(sub.req.Queries) == 0 {
		return true
	}
	for _, q := range sub.req.Queries {
		if q == key.QID {
			return true
		}
	}
	return false
}

// wants applies the subscription mode to one update. changed is the
// OnChange signal (payload fingerprint moved since the previous window).
func (sub *subscriber) wants(key stream.QueryKey, changed, isFinest bool, now time.Time) bool {
	mode := sub.req.Mode
	if mode == TargetDefined {
		if isFinest {
			mode = OnChange
		} else {
			mode = Sample
		}
	}
	switch mode {
	case OnChange:
		return changed
	case Sample:
		iv := sub.req.SampleInterval
		if iv <= 0 {
			return true
		}
		if last, ok := sub.lastSamp[key]; ok && now.Sub(last) < iv {
			return false
		}
		sub.lastSamp[key] = now
		return true
	}
	return true
}

// writeDeadliner is the part of net.Conn that bounds Close's flush.
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

type serverMetrics struct {
	active     *telemetry.Gauge
	accepted   *telemetry.Counter
	updates    *telemetry.Counter
	delivered  *telemetry.Counter
	dropped    *telemetry.Counter
	evictions  *telemetry.Counter
	queueDepth *telemetry.Gauge
	highwater  *telemetry.Gauge
	sendNS     *telemetry.Histogram
	sentBytes  *telemetry.Counter
	reconnects *telemetry.Counter
}

// Server fans window results out to subscribers. It implements
// runtime.ResultSink: Publish also reports the bytes it queued per instance,
// which the runtime writes into the window's per-instance records.
//
// The zero Server is not usable; call NewServer.
type Server struct {
	mu     sync.Mutex
	subs   map[uint64]*subscriber
	nextID uint64
	closed bool

	// Per-instance publish state: prevFP/seen drive OnChange dedup, last
	// retains the newest frame for initial sync of late joiners, finest
	// tracks which level carries each query's operator-facing answers.
	prevFP map[stream.QueryKey]uint64
	seen   map[stream.QueryKey]bool
	last   map[stream.QueryKey]*frame
	finest map[uint16]uint8

	pool  sync.Pool // *frame
	m     serverMetrics
	depth int // frames currently queued across all subscribers
	// delivered is Publish's return value, reused window after window.
	delivered []uint64
	// tring is the span lane Publish records its fan-out span into. Publish
	// runs on the runtime's close path, so writes are single-threaded with
	// the runtime's other lane-0 spans (nil when tracing is off).
	tring *tracez.Ring
}

// NewServer returns an empty subscription server; wire it with
// rt.SetResultSink(s) and (optionally) Instrument.
func NewServer() *Server {
	s := &Server{
		subs:   make(map[uint64]*subscriber),
		nextID: 1,
		prevFP: make(map[stream.QueryKey]uint64),
		seen:   make(map[stream.QueryKey]bool),
		last:   make(map[stream.QueryKey]*frame),
		finest: make(map[uint16]uint8),
	}
	s.pool.New = func() any { return &frame{} }
	return s
}

// Instrument registers the server's metrics against reg (nil disables; the
// handles are nil-safe).
func (s *Server) Instrument(reg *telemetry.Registry) {
	s.m = serverMetrics{
		active: reg.Gauge("sonata_subscribe_active",
			"Currently attached result subscribers."),
		accepted: reg.Counter("sonata_subscribe_accepted_total",
			"Subscriptions accepted since start."),
		updates: reg.Counter("sonata_subscribe_updates_total",
			"Per-instance window updates encoded for fan-out."),
		delivered: reg.Counter("sonata_subscribe_delivered_total",
			"Notify frames written to subscribers."),
		dropped: reg.Counter("sonata_subscribe_dropped_total",
			"Queued updates discarded by drop-oldest backpressure."),
		evictions: reg.Counter("sonata_subscribe_evictions_total",
			"Subscribers forcibly evicted: queue overflow under the disconnect policy, or a failed write."),
		queueDepth: reg.Gauge("sonata_subscribe_queue_depth",
			"Updates currently queued across all subscriber send queues."),
		highwater: reg.Gauge("sonata_subscribe_queue_highwater",
			"Deepest single subscriber send queue observed."),
		sendNS: reg.Histogram("sonata_subscribe_send_ns",
			"Wall time writing one notify frame to a subscriber in nanoseconds.",
			telemetry.DurationBuckets),
		sentBytes: reg.Counter("sonata_subscribe_sent_bytes_total",
			"Bytes written to subscribers, frame headers included."),
		reconnects: reg.Counter("sonata_subscribe_dialout_reconnects_total",
			"Dial-out collector connection attempts after the first."),
	}
}

// AttachTracez wires the span lane Publish records its subscribe_fanout
// span into; the runtime forwards its orchestration lane here. A nil ring
// detaches.
func (s *Server) AttachTracez(r *tracez.Ring) {
	s.mu.Lock()
	s.tring = r
	s.mu.Unlock()
}

// Publish fans one closed window out to every subscriber. It is called on
// the runtime's window-close path and never blocks: each matching update is
// encoded once into a pooled, refcounted frame and enqueued without copying;
// a full queue triggers the subscriber's eviction policy inline. It returns
// the bytes queued for each of rep.AllResults — one per installed instance,
// in the order of rep.Instances — frame headers included, or nil when it
// encoded nothing; the slice is reused by the next Publish.
func (s *Server) Publish(rep *runtime.WindowReport) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	sp := s.tring.Start(tracez.NameSubscribeFanout)
	sp.Attr(tracez.AttrSubscribers, uint64(len(s.subs)))
	defer sp.End()
	var fanUpdates, fanBytes uint64
	defer func() {
		sp.Attr(tracez.AttrUpdates, fanUpdates)
		sp.Attr(tracez.AttrBytes, fanBytes)
	}()
	// rep.Results carries exactly the finest-level outputs; remember each
	// query's finest level for TargetDefined and level filtering.
	for i := range rep.Results {
		s.finest[rep.Results[i].QID] = rep.Results[i].Level
	}
	if len(s.subs) == 0 && len(s.last) == 0 {
		// Nobody listening and nothing retained: skip encoding entirely so
		// an unsubscribed deployment pays nothing per window.
		return nil
	}
	now := time.Now()
	s.delivered = append(s.delivered[:0], make([]uint64, len(rep.AllResults))...)
	for i := range rep.AllResults {
		res := &rep.AllResults[i]
		key := stream.QueryKey{QID: res.QID, Level: res.Level}
		isFinest := s.finest[res.QID] == res.Level

		f := s.pool.Get().(*frame)
		f.key, f.window, f.refs = key, rep.Index, 1
		f.buf = appendHeader(f.buf[:0], rep.Index, key)
		f.payloadOff = len(f.buf)
		f.buf = appendResult(f.buf, res)
		f.fp = fingerprint(f.buf[f.payloadOff:])
		changed := f.fp != s.prevFP[key] || !s.seen[key]
		s.prevFP[key], s.seen[key] = f.fp, true
		s.m.updates.Inc()
		fanUpdates++

		// Retain the newest frame per instance for late-joiner initial sync.
		if old := s.last[key]; old != nil {
			s.releaseLocked(old)
		}
		f.refs++
		s.last[key] = f

		enqueued := 0
		for _, sub := range s.subs {
			if !sub.matches(key, isFinest) || !sub.wants(key, changed, isFinest, now) {
				continue
			}
			if s.enqueueLocked(sub, f) {
				enqueued++
			}
		}
		n := uint64(enqueued * (len(f.buf) + frameOverhead))
		fanBytes += n
		s.delivered[i] = n
		s.releaseLocked(f)
	}
	s.m.queueDepth.Set(int64(s.depth))
	return s.delivered
}

// enqueueLocked hands one frame to a subscriber without blocking, applying
// its backpressure policy on overflow. Reports whether the frame was
// queued. Caller holds s.mu.
func (s *Server) enqueueLocked(sub *subscriber, f *frame) bool {
	f.refs++
	for {
		select {
		case sub.q <- f:
			s.depth++
			if d := len(sub.q); d > sub.highwater {
				sub.highwater = d
				if int64(d) > s.m.highwater.Value() {
					s.m.highwater.Set(int64(d))
				}
			}
			return true
		default:
		}
		if sub.req.Policy == Disconnect {
			f.refs--
			s.evictLocked(sub)
			return false
		}
		// DropOldest: pop one (racing benignly with the writer, which may
		// drain it first) and retry. Dropping shrinks the queue by one, so
		// the retry can only go around once per concurrent writer read.
		select {
		case old := <-sub.q:
			s.depth--
			sub.dropped++
			s.m.dropped.Inc()
			s.releaseLocked(old)
		default:
		}
	}
}

// evictLocked forcibly removes a subscriber: it is deleted from the fan-out
// set, its transport is closed (unblocking a writer stalled mid-Write), and
// its queue is closed so the writer drains and exits. Never blocks; caller
// holds s.mu.
func (s *Server) evictLocked(sub *subscriber) {
	if sub.evicted {
		return
	}
	sub.evicted = true
	delete(s.subs, sub.id)
	s.m.evictions.Inc()
	s.m.active.Set(int64(len(s.subs)))
	if sub.closer != nil {
		sub.closer.Close()
	}
	close(sub.q)
}

// releaseLocked drops one reference; the last reference recycles the frame
// into the pool. Caller holds s.mu.
func (s *Server) releaseLocked(f *frame) {
	f.refs--
	if f.refs == 0 {
		s.pool.Put(f)
	}
}

// release is releaseLocked for the writer goroutines.
func (s *Server) release(f *frame) {
	s.mu.Lock()
	s.releaseLocked(f)
	s.mu.Unlock()
}

// writer drains one subscriber's queue onto its transport. Frames are
// written verbatim (the fan-out shares one encoding); a failed write evicts
// the subscriber and the remaining queue is released unsent.
func (s *Server) writer(sub *subscriber) {
	defer close(sub.done)
	for f := range sub.q {
		start := time.Now()
		err := sub.pc.SendRaw(netproto.MsgNotify, f.buf)
		s.m.sendNS.ObserveDuration(time.Since(start))
		n := len(f.buf) + frameOverhead
		s.mu.Lock()
		s.depth--
		s.releaseLocked(f)
		if err == nil {
			sub.delivered++
		}
		s.mu.Unlock()
		if err != nil {
			s.mu.Lock()
			if !sub.evicted {
				s.evictLocked(sub)
			}
			s.mu.Unlock()
			for g := range sub.q {
				s.mu.Lock()
				s.depth--
				s.releaseLocked(g)
				s.mu.Unlock()
			}
			return
		}
		s.m.delivered.Inc()
		s.m.sentBytes.Add(uint64(n))
	}
}

// Attach subscribes a local consumer over any writer (no MsgSubscribe
// handshake — the bench and in-process consumers use this). If w implements
// io.Closer it is closed on eviction, Detach and Close; one with
// SetWriteDeadline (a net.Conn) additionally gets a write deadline during
// their grace period. Retained last-state frames matching the filter are
// queued immediately (initial sync). Returns the subscriber id for Detach.
func (s *Server) Attach(w io.Writer, req SubscribeRequest) (uint64, error) {
	sub, err := s.attach(w, req)
	if err != nil {
		return 0, err
	}
	go s.writer(sub)
	return sub.id, nil
}

func (s *Server) attach(w io.Writer, req SubscribeRequest) (*subscriber, error) {
	if req.QueueCap <= 0 {
		req.QueueCap = DefaultQueueCap
	}
	if req.Mode > TargetDefined {
		return nil, fmt.Errorf("subscribe: unknown mode %d", req.Mode)
	}
	if req.Policy > Disconnect {
		return nil, fmt.Errorf("subscribe: unknown eviction policy %d", req.Policy)
	}
	sub := &subscriber{
		req:      req,
		pc:       netproto.NewConn(writeOnly{w}),
		q:        make(chan *frame, req.QueueCap),
		done:     make(chan struct{}),
		lastSamp: make(map[stream.QueryKey]time.Time),
	}
	if c, ok := w.(io.Closer); ok {
		sub.closer = c
	}
	if d, ok := w.(writeDeadliner); ok {
		sub.deadline = d
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	sub.id = s.nextID
	s.nextID++
	s.subs[sub.id] = sub
	s.m.accepted.Inc()
	s.m.active.Set(int64(len(s.subs)))
	// Initial sync: the retained newest frame per matching instance, so an
	// OnChange subscriber starts from current state, not from the next diff.
	for key, f := range s.last {
		if sub.matches(key, s.finest[key.QID] == key.Level) {
			s.enqueueLocked(sub, f)
		}
	}
	s.mu.Unlock()
	return sub, nil
}

// abort tears down a subscriber whose writer was never started (a failed
// handshake): it is removed from the fan-out set and its queue drained.
func (s *Server) abort(sub *subscriber) {
	s.mu.Lock()
	if !sub.evicted {
		sub.evicted = true
		delete(s.subs, sub.id)
		s.m.active.Set(int64(len(s.subs)))
		close(sub.q)
	}
	for f := range sub.q {
		s.depth--
		s.releaseLocked(f)
	}
	s.mu.Unlock()
	close(sub.done)
}

// Detach gracefully unsubscribes one subscriber the way Close does all of
// them: queued updates are flushed within the grace period, then the
// transport is closed.
func (s *Server) Detach(id uint64) {
	s.mu.Lock()
	sub, ok := s.subs[id]
	if ok {
		delete(s.subs, id)
		s.m.active.Set(int64(len(s.subs)))
		endLocked(sub)
	}
	s.mu.Unlock()
	if ok {
		finish(sub)
	}
}

// HandleConn serves one subscriber connection: it reads the MsgSubscribe
// request, acknowledges with the assigned id, then streams MsgNotify frames
// until the peer disconnects (the reader doubles as the liveness check).
// The caller closes nc; a subscription that started closes it on ending.
//
// Write ordering: the subscriber is registered before the ack (so no window
// is missed) but its writer goroutine starts only after the ack is on the
// wire — updates buffer in the queue meanwhile — so the ack always precedes
// the first notify.
func (s *Server) HandleConn(nc net.Conn) error {
	pc := netproto.NewConn(nc)
	var req SubscribeRequest
	if err := pc.Expect(netproto.MsgSubscribe, &req); err != nil {
		return err
	}
	sub, err := s.attach(nc, req)
	if err != nil {
		pc.SendError(err)
		return err
	}
	if err := pc.Send(netproto.MsgSubscribeOK, &SubscribeAck{ID: sub.id}); err != nil {
		s.abort(sub)
		return err
	}
	go s.writer(sub)
	// Block on the read side: a clean EOF or any error means the peer is
	// gone. Subscribers send nothing after the request, so any frame here
	// is protocol misuse and also ends the session.
	_, _, rerr := pc.RecvRaw()
	s.Detach(sub.id)
	return rerr
}

// Serve accepts subscriber connections until the listener closes. Each
// connection is handled on its own goroutine and closed when it ends.
func (s *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer nc.Close()
			_ = s.HandleConn(nc)
		}()
	}
}

// Close shuts the server down: no new subscriptions are accepted, queued
// updates are flushed within a grace period, then transports are closed. A
// subscriber stalled past the grace has its transport forced shut.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := make([]*subscriber, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subs = map[uint64]*subscriber{}
	for key, f := range s.last {
		s.releaseLocked(f)
		delete(s.last, key)
	}
	s.m.active.Set(0)
	for _, sub := range subs {
		endLocked(sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		finish(sub)
	}
	return nil
}

// endLocked closes a subscriber's queue, so its writer exits once the queue
// drains, and bounds that flush: a stalled peer unblocks with a timeout
// error. Caller holds s.mu.
func endLocked(sub *subscriber) {
	sub.evicted = true // bar re-eviction; not counted as one
	close(sub.q)
	if sub.deadline != nil {
		sub.deadline.SetWriteDeadline(time.Now().Add(closeGrace))
	}
}

// finish waits for an ended subscriber's writer, forcing the transport shut
// if the flush outlasts the grace period, then closes the transport.
func finish(sub *subscriber) {
	if sub.closer == nil {
		<-sub.done
		return
	}
	select {
	case <-sub.done:
	case <-time.After(closeGrace + time.Second):
		sub.closer.Close()
		<-sub.done
	}
	sub.closer.Close()
}

// writeOnly adapts a bare writer to netproto's ReadWriter transport; the
// subscriber path never reads through it.
type writeOnly struct{ io.Writer }

func (writeOnly) Read([]byte) (int, error) { return 0, io.EOF }
