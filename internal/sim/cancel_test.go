package sim_test

import (
	"context"
	"errors"
	"testing"

	"datastall/internal/sim"
	. "datastall/internal/sim/simtest"
)

// TestRunContextUncancelledMatchesRun: with a background context the
// dispatch loop is Run, event for event.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	trace := func(drive func(e *sim.Engine)) []float64 {
		e := sim.New()
		var ts []float64
		for i := 0; i < 50; i++ {
			d := float64(i%7) * 0.5
			e.Schedule(d, func() { ts = append(ts, e.Now()) })
		}
		drive(e)
		return ts
	}
	a := trace(func(e *sim.Engine) { e.Run() })
	b := trace(func(e *sim.Engine) {
		if err := e.RunContext(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
	})
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at t=%g vs t=%g", i, a[i], b[i])
		}
	}
}

// TestRunContextCancelMidRun: cancellation stops the clock mid-simulation
// and drops every pending event without deadlock.
func TestRunContextCancelMidRun(t *testing.T) {
	e := sim.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ticks, otherTicks int
	e.Spawn("ticker", func(p *sim.Proc) {
		ticks++
		if ticks == 100 {
			cancel()
		}
		p.WakeAfter(1)
	})
	e.Spawn("other", func(p *sim.Proc) {
		otherTicks++
		p.WakeAfter(1)
	})
	// A process registered forever on a store with no producer.
	st := sim.NewStore[int](e, 1)
	Script(e, "starved", Get(st, nil, nil))

	err := e.RunContext(ctx, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ticks < 100 || ticks > 110 {
		t.Fatalf("ticker ran %d steps; cancellation not prompt", ticks)
	}
	if otherTicks < 90 {
		t.Fatalf("other proc ran %d steps before cancel", otherTicks)
	}
	// The engine is fully torn down: no pending events.
	if e.Len() != 0 {
		t.Fatalf("engine not drained: %d events", e.Len())
	}
	now := e.Now()
	e.Run() // nothing left to run, clock unchanged
	if e.Now() != now {
		t.Fatalf("clock moved after cancel: %v -> %v", now, e.Now())
	}
}

// TestRunContextPreCancelled: an already-dead context never dispatches.
func TestRunContextPreCancelled(t *testing.T) {
	e := sim.New()
	ran := false
	e.Schedule(0, func() { ran = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("event dispatched despite pre-cancelled context")
	}
}
