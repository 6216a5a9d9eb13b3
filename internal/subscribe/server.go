package subscribe

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/netproto"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// DefaultQueueCap is the per-subscriber send-queue depth when the request
// leaves QueueCap zero: deep enough to ride out a transient stall, shallow
// enough that an evicted consumer's backlog is bounded.
const DefaultQueueCap = 64

// MaxQueueCap is the deepest send queue a subscriber may ask for. The queue
// and its writer's spare are allocated at full depth when the subscriber
// attaches, so a remote request's QueueCap must be bounded before it sizes
// anything.
const MaxQueueCap = 1 << 16

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
// the same bytes. Frames are recycled: the last reference dropped puts the
// frame on the server's free list. The count is plain (not atomic) by
// design: it is only touched under the server mutex, by Publish, enqueue,
// drop-oldest and the writers' releases.
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

	// pending is the send queue, oldest first and at most req.QueueCap
	// long, guarded by the server mutex. The writer takes it whole in
	// exchange for a spare of the same capacity, so neither ever grows.
	pending []*frame
	// wake tells the writer that pending went non-empty or the queue ended.
	// It has one slot and is sent to without blocking, so a burst of
	// frames costs one wake-up and a stale token only one empty pass.
	wake chan struct{}
	done chan struct{} // closed when the writer goroutine exits

	// lastSamp paces Sample-mode delivery per (query, level); touched only
	// under the server mutex (the publish path).
	lastSamp map[stream.QueryKey]time.Time

	// Stats below are written under the server mutex; the debug endpoint
	// reads them the same way. evicted also ends the queue: the writer
	// exits once it has written (or, after a failed write, released)
	// everything queued.
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
// which the runtime writes into the window's per-instance records, and the
// subscribers it fanned out to, which go into the window's span tree.
//
// The zero Server is not usable; call NewServer.
type Server struct {
	mu     sync.Mutex
	subs   []*subscriber // the fan-out set, in attach (so id) order
	nextID uint64
	closed bool

	// Per-instance publish state: prevFP/seen drive OnChange dedup, last
	// retains the newest frame for initial sync of late joiners, finest
	// tracks which level carries each query's operator-facing answers.
	prevFP map[stream.QueryKey]uint64
	seen   map[stream.QueryKey]bool
	last   map[stream.QueryKey]*frame
	finest map[uint16]uint8

	// free holds the frames no one references any more, for Publish to
	// reuse (under mu, like every release).
	free  []*frame
	m     serverMetrics
	depth int // frames currently queued across all subscribers
	// delivered is Publish's return value, reused window after window.
	delivered []uint64
	// woken collects the subscribers whose queue this Publish took from
	// empty to non-empty, so their writers are woken once the mutex is
	// released. Like delivered, only Publish touches it.
	woken []*subscriber
}

// NewServer returns an empty subscription server; wire it with
// rt.SetResultSink(s) and (optionally) Instrument.
func NewServer() *Server {
	s := &Server{
		nextID: 1,
		prevFP: make(map[stream.QueryKey]uint64),
		seen:   make(map[stream.QueryKey]bool),
		last:   make(map[stream.QueryKey]*frame),
		finest: make(map[uint16]uint8),
	}
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

// Publish fans one closed window out to every subscriber. It is called on
// the runtime's window-close path and never blocks: each matching update is
// encoded once into a recycled, refcounted frame and appended to the
// subscribers' pending queues without copying; a full queue triggers the
// subscriber's eviction policy inline. Each writer whose queue went from
// empty to non-empty is woken once, after the mutex is released. It returns
// the bytes queued for each of rep.AllResults — one per installed instance,
// in the order of rep.Instances — frame headers included, or nil when it
// encoded nothing, and the number of subscribers attached when the fan-out
// began. The slice is reused by the next Publish; calls must not overlap
// (the runtime makes one per closed window).
func (s *Server) Publish(rep *runtime.WindowReport) ([]uint64, int) {
	s.mu.Lock()
	delivered, subscribers := s.publishLocked(rep)
	s.mu.Unlock()
	for i, sub := range s.woken {
		wake(sub)
		s.woken[i] = nil
	}
	s.woken = s.woken[:0]
	return delivered, subscribers
}

func (s *Server) publishLocked(rep *runtime.WindowReport) ([]uint64, int) {
	if s.closed {
		return nil, 0
	}
	subscribers := len(s.subs)
	// rep.Results carries exactly the finest-level outputs; remember each
	// query's finest level for TargetDefined and level filtering.
	for i := range rep.Results {
		s.finest[rep.Results[i].QID] = rep.Results[i].Level
	}
	if len(s.subs) == 0 && len(s.last) == 0 {
		// Nobody listening and nothing retained: skip encoding entirely so
		// an unsubscribed deployment pays nothing per window.
		return nil, 0
	}
	now := time.Now()
	s.delivered = append(s.delivered[:0], make([]uint64, len(rep.AllResults))...)
	for i := range rep.AllResults {
		res := &rep.AllResults[i]
		key := stream.QueryKey{QID: res.QID, Level: res.Level}
		isFinest := s.finest[res.QID] == res.Level

		var f *frame
		if n := len(s.free); n > 0 {
			f, s.free = s.free[n-1], s.free[:n-1]
		} else {
			f = &frame{}
		}
		f.key, f.window, f.refs = key, rep.Index, 1
		f.buf = appendHeader(f.buf[:0], rep.Index, key)
		f.payloadOff = len(f.buf)
		f.buf = appendResult(f.buf, res)
		f.fp = fingerprint(f.buf[f.payloadOff:])
		changed := f.fp != s.prevFP[key] || !s.seen[key]
		s.prevFP[key], s.seen[key] = f.fp, true
		s.m.updates.Inc()

		// Retain the newest frame per instance for late-joiner initial sync.
		if old := s.last[key]; old != nil {
			s.releaseLocked(old)
		}
		f.refs++
		s.last[key] = f

		enqueued := 0
		for j := 0; j < len(s.subs); {
			sub := s.subs[j]
			if sub.matches(key, isFinest) && sub.wants(key, changed, isFinest, now) {
				if len(sub.pending) == 0 {
					s.woken = append(s.woken, sub)
				}
				if s.enqueueLocked(sub, f) {
					enqueued++
				}
			}
			if !sub.evicted { // an overflow eviction removed s.subs[j]
				j++
			}
		}
		s.delivered[i] = uint64(enqueued * (len(f.buf) + frameOverhead))
		s.releaseLocked(f)
	}
	s.m.queueDepth.Set(int64(s.depth))
	return s.delivered, subscribers
}

// enqueueLocked appends one frame to a subscriber's pending queue, applying
// its backpressure policy on overflow: DropOldest recycles the oldest queued
// frame to make room, Disconnect evicts the subscriber. Reports whether the
// frame was queued. Caller holds s.mu.
func (s *Server) enqueueLocked(sub *subscriber, f *frame) bool {
	if len(sub.pending) == sub.req.QueueCap {
		if sub.req.Policy == Disconnect {
			s.evictLocked(sub)
			return false
		}
		old := sub.pending[0]
		n := copy(sub.pending, sub.pending[1:])
		sub.pending[n] = nil
		sub.pending = sub.pending[:n]
		s.depth--
		sub.dropped++
		s.m.dropped.Inc()
		s.releaseLocked(old)
	}
	f.refs++
	sub.pending = append(sub.pending, f)
	s.depth++
	if d := len(sub.pending); d > sub.highwater {
		sub.highwater = d
		if int64(d) > s.m.highwater.Value() {
			s.m.highwater.Set(int64(d))
		}
	}
	return true
}

// wake signals a subscriber's writer without blocking; a token already in
// the slot covers this one.
func wake(sub *subscriber) {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// removeLocked takes a subscriber out of the fan-out set, keeping the rest in
// attach order. Caller holds s.mu.
func (s *Server) removeLocked(sub *subscriber) {
	if i := slices.Index(s.subs, sub); i >= 0 {
		s.subs = slices.Delete(s.subs, i, i+1)
	}
	s.m.active.Set(int64(len(s.subs)))
}

// evictLocked forcibly removes a subscriber: it is deleted from the fan-out
// set, its transport is closed (unblocking a writer stalled mid-Write), and
// its queue is ended so the writer drains and exits. Never blocks; caller
// holds s.mu.
func (s *Server) evictLocked(sub *subscriber) {
	if sub.evicted {
		return
	}
	sub.evicted = true
	s.removeLocked(sub)
	s.m.evictions.Inc()
	if sub.closer != nil {
		sub.closer.Close()
	}
	wake(sub)
}

// releaseLocked drops one reference; the last reference puts the frame on
// the free list. Caller holds s.mu.
func (s *Server) releaseLocked(f *frame) {
	f.refs--
	if f.refs == 0 {
		s.free = append(s.free, f)
	}
}

// releaseAllLocked releases every frame in fs and clears the slots. Caller
// holds s.mu.
func (s *Server) releaseAllLocked(fs []*frame) {
	for i, f := range fs {
		s.releaseLocked(f)
		fs[i] = nil
	}
	s.depth -= len(fs)
}

// writer drains one subscriber's queue onto its transport. Each pass takes
// everything pending in one exchange under the mutex, writes it one frame
// per Write (a redialing transport resends a failed Write whole, so a write
// never spans frames), then takes the mutex once more to release the frames.
// Frames are written verbatim (the fan-out shares one encoding); a failed
// write evicts the subscriber and what remains, in hand or pending, is
// released unsent. The writer exits when the queue has ended and is empty.
func (s *Server) writer(sub *subscriber) {
	defer close(sub.done)
	batch := make([]*frame, 0, sub.req.QueueCap)
	for {
		s.mu.Lock()
		batch, sub.pending = sub.pending, batch
		ended := sub.evicted
		s.mu.Unlock()
		if len(batch) == 0 {
			if ended {
				return
			}
			<-sub.wake
			continue
		}
		sent, n := 0, 0
		var err error
		for _, f := range batch {
			start := time.Now()
			err = sub.pc.SendRaw(netproto.MsgNotify, f.buf)
			s.m.sendNS.ObserveDuration(time.Since(start))
			if err != nil {
				break
			}
			sent++
			n += len(f.buf) + frameOverhead
		}
		s.mu.Lock()
		sub.delivered += uint64(sent)
		s.releaseAllLocked(batch)
		batch = batch[:0]
		if err != nil {
			s.evictLocked(sub)
			s.releaseAllLocked(sub.pending)
			sub.pending = sub.pending[:0]
		}
		s.mu.Unlock()
		s.m.delivered.Add(uint64(sent))
		s.m.sentBytes.Add(uint64(n))
		if err != nil {
			return
		}
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
	if req.QueueCap > MaxQueueCap {
		return nil, fmt.Errorf("subscribe: queue capacity %d above the maximum %d", req.QueueCap, MaxQueueCap)
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
		pending:  make([]*frame, 0, req.QueueCap),
		wake:     make(chan struct{}, 1),
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
	s.subs = append(s.subs, sub)
	s.m.accepted.Inc()
	s.m.active.Set(int64(len(s.subs)))
	// Initial sync: the retained newest frame per matching instance, so an
	// OnChange subscriber starts from current state, not from the next diff.
	// The writer looks at its queue before it first waits, so these need no
	// wake-up.
	for key, f := range s.last {
		if sub.matches(key, s.finest[key.QID] == key.Level) {
			s.enqueueLocked(sub, f)
		}
	}
	s.mu.Unlock()
	return sub, nil
}

// abort tears down a subscriber whose writer was never started (a failed
// handshake): it is removed from the fan-out set and its queue released.
func (s *Server) abort(sub *subscriber) {
	s.mu.Lock()
	if !sub.evicted {
		sub.evicted = true
		s.removeLocked(sub)
	}
	s.releaseAllLocked(sub.pending)
	sub.pending = sub.pending[:0]
	s.mu.Unlock()
	close(sub.done)
}

// Detach gracefully unsubscribes one subscriber the way Close does all of
// them: queued updates are flushed within the grace period, then the
// transport is closed.
func (s *Server) Detach(id uint64) {
	s.mu.Lock()
	i := slices.IndexFunc(s.subs, func(sub *subscriber) bool { return sub.id == id })
	var sub *subscriber
	if i >= 0 {
		sub = s.subs[i]
		s.removeLocked(sub)
		endLocked(sub)
	}
	s.mu.Unlock()
	if sub != nil {
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
	subs := s.subs
	s.subs = nil
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

// endLocked ends a subscriber's queue, so its writer exits once the queue
// drains, and bounds that flush: a stalled peer unblocks with a timeout
// error. Caller holds s.mu.
func endLocked(sub *subscriber) {
	sub.evicted = true // bar re-eviction; not counted as one
	wake(sub)
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
