// Package subscribe streams per-window query results to many concurrent
// consumers — the gNMI-style telemetry delivery layer the paper's driver
// leaves to "the operator's collector". A Server sits behind the runtime's
// ResultSink hook: at every window close it encodes each (query, level)
// result exactly once and fans the shared bytes out over internal/netproto
// framing (MsgSubscribe / MsgSubscribeOK / MsgNotify). Collectors either
// dial in (Serve) or are dialed (DialOut); both are subscribers.
//
// The contract with the runtime is strict: Publish never blocks. Every
// subscriber owns a bounded send queue drained by its own writer goroutine;
// when a queue overflows, the subscriber's eviction policy decides whether
// the oldest queued update is discarded (DropOldest) or the subscriber is
// disconnected on the spot (Disconnect). A stalled consumer therefore costs
// the pipeline a queue slot, never a window.
//
// Subscription modes follow gNMI's STREAM semantics:
//
//   - OnChange delivers a (query, level) update only when its encoded
//     payload differs from the previous window's (plus an initial-sync
//     frame of the retained last state on attach);
//   - Sample delivers at most once per SampleInterval per (query, level)
//     (interval 0 means every window);
//   - TargetDefined lets the server choose: OnChange for a query's finest
//     refinement level (the operator-facing answers), Sample for the
//     coarser intermediate levels.
package subscribe

import (
	"time"

	"repro/internal/stream"
	"repro/internal/tuple"
)

// Mode selects when a subscriber receives a (query, level) window update.
type Mode uint8

const (
	// OnChange delivers only windows whose encoded payload changed.
	OnChange Mode = iota
	// Sample delivers at most once per SampleInterval per (query, level).
	Sample
	// TargetDefined lets the server pick: OnChange at a query's finest
	// refinement level, Sample at coarser levels.
	TargetDefined
)

func (m Mode) String() string {
	switch m {
	case OnChange:
		return "on-change"
	case Sample:
		return "sample"
	case TargetDefined:
		return "target-defined"
	default:
		return "mode(?)"
	}
}

// EvictPolicy decides what happens when a subscriber's send queue is full.
type EvictPolicy uint8

const (
	// DropOldest discards the oldest queued update to admit the new one.
	DropOldest EvictPolicy = iota
	// Disconnect evicts the subscriber outright: a consumer that cannot
	// keep up loses its session rather than silently losing data.
	Disconnect
)

func (p EvictPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Disconnect:
		return "disconnect"
	default:
		return "policy(?)"
	}
}

// SubscribeRequest opens a subscription (the MsgSubscribe payload).
type SubscribeRequest struct {
	Mode           Mode
	SampleInterval time.Duration // Sample/TargetDefined pacing; 0 = every window
	Policy         EvictPolicy
	QueueCap       int      // send-queue depth; 0 means DefaultQueueCap
	Queries        []uint16 // restrict to these query IDs (empty = all)
	AllLevels      bool     // include coarse refinement levels, not just finest
}

// SubscribeAck acknowledges a subscription (the MsgSubscribeOK payload).
type SubscribeAck struct {
	ID uint64
}

// Update is one decoded MsgNotify frame: a (query, level) instance's output
// for one window.
type Update struct {
	Window int
	QID    uint16
	Level  uint8
	Schema tuple.Schema
	Tuples [][]tuple.Value
}

// Key returns the instance the update belongs to.
func (u *Update) Key() stream.QueryKey {
	return stream.QueryKey{QID: u.QID, Level: u.Level}
}
