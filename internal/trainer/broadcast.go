// Broadcast fan-out: a Broadcaster multiplexes one job's Observer event
// stream to any number of dynamically attached subscribers without ever
// blocking the emitting job. Observers are called synchronously from the
// simulation goroutine (see Observer), so a subscriber that stops reading —
// a stalled network client, say — must not be able to stall the engine:
// each subscription owns a fixed-size ring that drops its oldest buffered
// event on overflow (so the most recent events, including the terminal
// JobEnded, always win) and counts what it dropped.
package trainer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrSubscriptionClosed is returned by Subscription.Next once the
// broadcaster has been closed and every buffered event has been drained.
var ErrSubscriptionClosed = errors.New("trainer: subscription closed")

// DefaultSubscriberBuffer is the per-subscription ring capacity used when
// Subscribe is given a non-positive size.
const DefaultSubscriberBuffer = 64

// Broadcaster is an Observer that fans events out to subscribers. The zero
// value is not usable; call NewBroadcaster. Observe never blocks and never
// allocates per subscriber beyond the ring slot, so a Broadcaster can sit
// directly on a job's hot event path.
type Broadcaster struct {
	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	closed bool

	published atomic.Uint64
	dropped   atomic.Uint64
}

// NewBroadcaster returns an empty Broadcaster ready to Observe.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: map[*Subscription]struct{}{}}
}

// Observe implements Observer: the event is offered to every live
// subscription. A full subscription drops its oldest buffered event to make
// room, so Observe completes in O(subscribers) regardless of how slowly any
// subscriber reads.
func (b *Broadcaster) Observe(ev Event) {
	b.published.Add(1)
	b.mu.Lock()
	for s := range b.subs {
		if s.offer(ev) {
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Subscribe attaches a new subscription with a ring of the given capacity
// (<= 0 selects DefaultSubscriberBuffer). Subscribing to a closed
// broadcaster yields a subscription whose Next immediately reports
// ErrSubscriptionClosed.
func (b *Broadcaster) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscription{
		b:      b,
		ring:   make([]Event, buffer),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	b.mu.Lock()
	if b.closed {
		close(s.done)
	} else {
		b.subs[s] = struct{}{}
	}
	b.mu.Unlock()
	return s
}

// Close marks the stream finished: subscribers drain whatever is buffered
// and then see ErrSubscriptionClosed. Close is idempotent and safe to call
// concurrently with Observe (events observed after Close are discarded).
func (b *Broadcaster) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = map[*Subscription]struct{}{}
	b.mu.Unlock()
	for s := range subs {
		close(s.done)
	}
}

// Published returns the number of events observed so far.
func (b *Broadcaster) Published() uint64 { return b.published.Load() }

// Dropped returns the total events dropped across all subscriptions
// (one drop counted per subscription that had to overwrite).
func (b *Broadcaster) Dropped() uint64 { return b.dropped.Load() }

// Subscribers returns the current number of live subscriptions.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscription is one reader of a Broadcaster's event stream.
type Subscription struct {
	b *Broadcaster

	mu      sync.Mutex
	ring    []Event
	head, n int
	dropped uint64

	notify chan struct{} // cap 1: "the ring may be non-empty"
	done   chan struct{} // closed by Broadcaster.Close / Cancel
	once   sync.Once
}

// offer appends ev, overwriting the oldest buffered event when full;
// reports whether an event was dropped. Called with b.mu held (so offer
// never races Close's detach), but takes s.mu because Next pops
// concurrently.
func (s *Subscription) offer(ev Event) (dropped bool) {
	s.mu.Lock()
	if s.n == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
		dropped = true
	}
	s.ring[(s.head+s.n)%len(s.ring)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return dropped
}

// Next blocks until an event is available and returns it. It returns
// ctx.Err() if ctx expires first, and ErrSubscriptionClosed once the
// broadcaster is closed (or the subscription cancelled) and the buffer is
// drained — buffered events are always delivered before the close.
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			ev := s.ring[s.head]
			s.ring[s.head] = nil // let the event be collected
			s.head = (s.head + 1) % len(s.ring)
			s.n--
			s.mu.Unlock()
			return ev, nil
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.notify:
		case <-s.done:
			// Re-check the ring: an offer may have landed between the
			// empty check and the close.
			s.mu.Lock()
			empty := s.n == 0
			s.mu.Unlock()
			if empty {
				return nil, ErrSubscriptionClosed
			}
		}
	}
}

// Dropped returns how many events this subscription lost to overflow.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Cancel detaches the subscription; pending buffered events remain
// drainable via Next. Safe to call more than once.
func (s *Subscription) Cancel() {
	s.b.mu.Lock()
	_, live := s.b.subs[s]
	delete(s.b.subs, s)
	s.b.mu.Unlock()
	if live {
		s.once.Do(func() { close(s.done) })
	}
}

// Annotation is a freeform Observer event for the layers above the trainer:
// the declarative spec runner and the HTTP job service interleave their own
// progress markers (e.g. "case_started" for one cell of a sweep) into a
// job's event stream, in stream order, without the trainer knowing their
// vocabulary. Kind names the marker; Text, Index, Total and Result are
// marker-defined (a "case_done" marker carries its cell's Result).
type Annotation struct {
	Time   float64
	Kind   string
	Text   string
	Index  int
	Total  int
	Result *Result
}

func (Annotation) isEvent() {}
