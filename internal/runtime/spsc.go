package runtime

import (
	goruntime "runtime"
	"sync/atomic"
)

// shardMsg is one slot of a shard's inbound ring: a view batch, a window
// close, or a worker stop. A close may carry the window's final partial
// batch, so the tail frames and the close ride one handoff instead of two
// (near-empty batches no longer pay their own wake).
type shardMsg struct {
	batch *viewBatch
	kind  uint8
}

const (
	msgBatch uint8 = iota
	msgClose
	msgStop
)

// shardQueueDepth is each shard's ring capacity (a power of two). Deep
// enough that the parse-side producer stays ahead of a momentarily slow
// shard without stalling the other shards' feed, shallow enough that a
// window's batches don't pile up unprocessed past the close barrier.
const shardQueueDepth = 16

// spscRing is a single-producer single-consumer ring of shardMsgs: the
// runtime's dispatch goroutine pushes, one shard worker pops. head/tail are
// monotonic counters (masked into buf); the Go memory model's ordering on
// the atomic loads/stores publishes each slot's contents to the other side,
// so the slots themselves need no synchronization. The consumer spins
// briefly when empty, then parks on the capacity-1 wake channel; the
// producer rings the doorbell only when it observes a parked consumer, so
// the steady-state handoff is two atomics and no channel operation — this
// is what replaced the depth-4 chan fan-out that ate the sharding dividend.
type spscRing struct {
	buf    []shardMsg
	mask   uint64
	head   atomic.Uint64 // next slot the consumer reads
	tail   atomic.Uint64 // next slot the producer writes
	parked atomic.Bool   // consumer parked on wake
	full   atomic.Bool   // producer parked on space
	wake   chan struct{}
	space  chan struct{}
	// fullParks counts the producer's parks on a full ring, parks the
	// consumer's on an empty one: plain fields, each written only by its
	// side and only on the slow path. The producer reads its own at window
	// close; the consumer hands its over with the close barrier.
	fullParks uint64
	parks     uint64
}

func (q *spscRing) init(depth int) {
	q.buf = make([]shardMsg, depth)
	q.mask = uint64(depth - 1)
	q.wake = make(chan struct{}, 1)
	q.space = make(chan struct{}, 1)
}

// push enqueues m, parking when the ring stays full (backpressure: the
// parser must not run more than a ring ahead of the slowest shard, and
// spinning here would steal the core that slowest shard needs). The same
// flag/doorbell protocol as pop, mirrored.
func (q *spscRing) push(m shardMsg) {
	t := q.tail.Load()
	for spin := 0; t-q.head.Load() == uint64(len(q.buf)); {
		if spin < 4 {
			spin++
			goruntime.Gosched()
			continue
		}
		q.full.Store(true)
		if t-q.head.Load() != uint64(len(q.buf)) {
			q.full.Store(false)
			break
		}
		q.fullParks++
		<-q.space
		q.full.Store(false)
	}
	q.buf[t&q.mask] = m
	q.tail.Store(t + 1)
	if q.parked.Load() {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// pop dequeues the next message, spinning briefly then parking when the
// ring is empty. The parked flag is set before the final emptiness check,
// so a producer that misses the flag must have published its slot first
// (both sides use sequentially consistent atomics) and the recheck sees it;
// a producer that sees the flag rings the doorbell. A stale doorbell token
// from an earlier near-miss only costs one extra loop iteration.
func (q *spscRing) pop() shardMsg {
	h := q.head.Load()
	for spin := 0; ; spin++ {
		if q.tail.Load() != h {
			m := q.buf[h&q.mask]
			q.buf[h&q.mask] = shardMsg{} // drop the batch reference for GC
			q.head.Store(h + 1)
			if q.full.Load() {
				select {
				case q.space <- struct{}{}:
				default:
				}
			}
			return m
		}
		if spin < 4 {
			goruntime.Gosched()
			continue
		}
		q.parked.Store(true)
		if q.tail.Load() != h {
			q.parked.Store(false)
			continue
		}
		q.parks++
		<-q.wake
		q.parked.Store(false)
	}
}
