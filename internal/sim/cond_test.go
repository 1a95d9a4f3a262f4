package sim_test

import (
	"testing"

	"datastall/internal/sim"
	. "datastall/internal/sim/simtest"
)

// await registers on c until pred holds, re-checking at every wake-up.
func await(c *sim.Cond, pred func() bool) Step {
	return Until(func(p *sim.Proc) bool {
		if pred() {
			return true
		}
		c.Register(p)
		return false
	})
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := sim.New()
	c := sim.NewCond(e)
	woken, signalled := 0, false
	for i := 0; i < 3; i++ {
		Script(e, "w", await(c, func() bool { return signalled }), Do(func(*sim.Proc) { woken++ }))
	}
	Script(e, "b", Sleep(5), Do(func(*sim.Proc) {
		if c.Waiting() != 3 {
			t.Errorf("waiting = %d, want 3", c.Waiting())
		}
		signalled = true
		c.Broadcast()
	}))
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if c.Waiting() != 0 {
		t.Fatalf("waiters not cleared: %d", c.Waiting())
	}
}

func TestCondPredicateLoop(t *testing.T) {
	e := sim.New()
	c := sim.NewCond(e)
	ready := false
	var seenAt float64
	Script(e, "waiter", await(c, func() bool { return ready }),
		Do(func(p *sim.Proc) { seenAt = p.Now() }))
	// Spurious broadcast at t=1 (predicate still false), real one at t=4.
	Script(e, "sig", Sleep(1), Do(func(*sim.Proc) { c.Broadcast() }),
		Sleep(3), Do(func(*sim.Proc) { ready = true; c.Broadcast() }))
	e.Run()
	if seenAt != 4 {
		t.Fatalf("waiter proceeded at %v, want 4 (must re-check predicate)", seenAt)
	}
}

// TestCondWaiterKilledAtShutdown: a waiter that is never signalled ends the
// run without hanging and is never resumed.
func TestCondWaiterKilledAtShutdown(t *testing.T) {
	e := sim.New()
	c := sim.NewCond(e)
	reached := false
	Script(e, "stuck", await(c, func() bool { return false }), Do(func(*sim.Proc) { reached = true }))
	e.Run()
	if reached {
		t.Fatal("stuck waiter should never be resumed")
	}
	if c.Waiting() != 1 {
		t.Fatalf("waiting = %d, want the stuck waiter still registered", c.Waiting())
	}
}
