package trainer

import (
	"context"
	"errors"
	"testing"
	"time"
)

// drain reads every event until the subscription closes, returning them.
func drain(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out []Event
	for {
		ev, err := sub.Next(ctx)
		if errors.Is(err, ErrSubscriptionClosed) {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ev)
	}
}

// TestBroadcasterDeliversInOrder: every subscriber with enough buffer sees
// the full event sequence in publication order.
func TestBroadcasterDeliversInOrder(t *testing.T) {
	bc := NewBroadcaster()
	a, b := bc.Subscribe(32), bc.Subscribe(32)
	for i := 0; i < 10; i++ {
		bc.Observe(EpochStarted{Epoch: i})
	}
	bc.Close()
	for name, sub := range map[string]*Subscription{"a": a, "b": b} {
		evs := drain(t, sub)
		if len(evs) != 10 {
			t.Fatalf("%s: got %d events, want 10", name, len(evs))
		}
		for i, ev := range evs {
			if es, ok := ev.(EpochStarted); !ok || es.Epoch != i {
				t.Fatalf("%s: event %d = %#v, want EpochStarted{Epoch: %d}", name, i, ev, i)
			}
		}
		if sub.Dropped() != 0 {
			t.Fatalf("%s: dropped %d events with a roomy buffer", name, sub.Dropped())
		}
	}
	if bc.Published() != 10 {
		t.Fatalf("Published = %d, want 10", bc.Published())
	}
}

// TestBroadcasterOverflowDropsOldest: a full ring discards its oldest
// buffered event, so the most recent events (the terminal JobEnded in real
// streams) survive.
func TestBroadcasterOverflowDropsOldest(t *testing.T) {
	bc := NewBroadcaster()
	sub := bc.Subscribe(4)
	for i := 0; i < 10; i++ {
		bc.Observe(EpochStarted{Epoch: i})
	}
	bc.Close()
	evs := drain(t, sub)
	if len(evs) != 4 {
		t.Fatalf("got %d buffered events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := 6 + i // the last four of 0..9
		if es := ev.(EpochStarted); es.Epoch != want {
			t.Fatalf("event %d = %#v, want epoch %d", i, ev, want)
		}
	}
	if sub.Dropped() != 6 || bc.Dropped() != 6 {
		t.Fatalf("dropped = %d (broadcaster %d), want 6", sub.Dropped(), bc.Dropped())
	}
}

// TestBroadcasterNextContext: Next honors its context while blocked.
func TestBroadcasterNextContext(t *testing.T) {
	bc := NewBroadcaster()
	sub := bc.Subscribe(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next = %v, want DeadlineExceeded", err)
	}
}

// TestBroadcasterSubscribeAfterClose: a late subscriber sees an immediately
// closed stream rather than a hang.
func TestBroadcasterSubscribeAfterClose(t *testing.T) {
	bc := NewBroadcaster()
	bc.Close()
	sub := bc.Subscribe(1)
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("Next = %v, want ErrSubscriptionClosed", err)
	}
	if bc.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after close", bc.Subscribers())
	}
}

// TestBroadcasterCancelDetaches: a cancelled subscription stops receiving,
// drains what it buffered, then closes; other subscribers are unaffected.
func TestBroadcasterCancelDetaches(t *testing.T) {
	bc := NewBroadcaster()
	quitter, stayer := bc.Subscribe(8), bc.Subscribe(8)
	bc.Observe(EpochStarted{Epoch: 0})
	quitter.Cancel()
	quitter.Cancel() // idempotent
	bc.Observe(EpochStarted{Epoch: 1})
	bc.Close()
	if evs := drain(t, quitter); len(evs) != 1 {
		t.Fatalf("cancelled sub got %d events, want the 1 buffered before Cancel", len(evs))
	}
	if evs := drain(t, stayer); len(evs) != 2 {
		t.Fatalf("remaining sub got %d events, want 2", len(evs))
	}
}

// TestBroadcasterSlowSubscriberCannotStallJob is the fan-out subsystem's
// core guarantee: a subscriber that never reads must not block a running
// simulation. The job runs with a 1-slot never-read subscription attached;
// if the broadcaster could block, the engine goroutine would deadlock here
// and the test would time out.
func TestBroadcasterSlowSubscriberCannotStallJob(t *testing.T) {
	bc := NewBroadcaster()
	slow := bc.Subscribe(1) // never read until the job is done
	fast := bc.Subscribe(0)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunContext(context.Background(), coordlConfig(t, jobDataset(), 6), bc)
		bc.Close()
		done <- outcome{res, err}
	}()

	// Read the fast subscription concurrently, like a live client.
	fastEvents := make(chan int, 1)
	go func() {
		n := 0
		ctx := context.Background()
		for {
			_, err := fast.Next(ctx)
			if err != nil {
				fastEvents <- n
				return
			}
			n++
		}
	}()

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if len(o.res.Epochs) != 6 {
			t.Fatalf("job ran %d epochs, want 6", len(o.res.Epochs))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job stalled behind a slow subscriber")
	}

	// 6 epochs emit 1 JobStarted + 6 starts + 6 ends + 1 JobEnded = 14
	// events; the 1-slot ring must have dropped most of them.
	if n := <-fastEvents; n != 14 {
		t.Fatalf("fast subscriber saw %d events, want 14", n)
	}
	if slow.Dropped() == 0 {
		t.Fatal("slow subscriber dropped nothing; the ring never overflowed, so the test is vacuous")
	}
	evs := drain(t, slow)
	if len(evs) != 1 {
		t.Fatalf("slow subscriber drained %d events, want its single buffered slot", len(evs))
	}
	if _, ok := evs[0].(JobEnded); !ok {
		t.Fatalf("slow subscriber's surviving event = %#v, want the terminal JobEnded", evs[0])
	}
}
