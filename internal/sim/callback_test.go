package sim_test

import (
	"testing"

	"datastall/internal/race"
	"datastall/internal/sim"
	. "datastall/internal/sim/simtest"
)

// TestCallbackStoreFIFO: a hand-rolled state-machine consumer drains a
// producer through a bounded store in FIFO order — the shape of the
// trainer's GPU consumers.
func TestCallbackStoreFIFO(t *testing.T) {
	e := sim.New()
	s := sim.NewStore[int](e, 2)
	var producer []Step
	for i := 0; i < 5; i++ {
		producer = append(producer, Sleep(1), Put(s, i))
	}
	Script(e, "producer", producer...)
	var got []int
	e.Spawn("consumer", func(p *sim.Proc) {
		for {
			v, ok, ready := s.TryGet(p, p.Now())
			if !ready {
				return
			}
			if !ok {
				t.Error("store closed early")
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestCallbackPutBackpressure: a state-machine producer retrying TryPut with
// its first-attempt time blocks on a full store and accounts the whole wait
// in PutBlocked.
func TestCallbackPutBackpressure(t *testing.T) {
	e := sim.New()
	s := sim.NewStore[int](e, 1)
	sent := 0
	start := 0.0 // first-attempt time of the pending put
	var putDone float64
	e.Spawn("producer", func(p *sim.Proc) {
		for sent < 2 {
			if !s.TryPut(p, sent, start) {
				return
			}
			sent++
			start = p.Now()
		}
		putDone = p.Now()
	})
	Script(e, "consumer", Sleep(10), Get(s, nil, nil), Sleep(10), Get(s, nil, nil))
	e.Run()
	if putDone != 10 || s.PutBlocked != 10 {
		t.Fatalf("putDone=%v PutBlocked=%v, want 10/10", putDone, s.PutBlocked)
	}
}

// TestMixedBarrier: a hand-rolled state machine following the Arrive
// contract (record the arrival time, add its share to Waited when resumed)
// shares one barrier with scripted waiters; release time and Waited are
// those of three waiters arriving at t=1, 2 and 3.
func TestMixedBarrier(t *testing.T) {
	e := sim.New()
	b := sim.NewBarrier(e, 3)
	var release float64
	for i := 0; i < 2; i++ {
		// Arrive at t=2 and t=3.
		Script(e, "w", Sleep(float64(i+2)), Wait(b), Do(func(p *sim.Proc) { release = p.Now() }))
	}
	state, start := 0, 0.0
	e.Spawn("cb", func(p *sim.Proc) {
		switch state {
		case 0: // arrive at t=1
			state = 1
			p.WakeAfter(1)
		case 1:
			if b.Arrive(p) {
				state = 3
				return
			}
			start = p.Now()
			state = 2
		case 2:
			b.Waited += p.Now() - start
			state = 3
		}
	})
	e.Run()
	if release != 3 || b.Waited != (3-1)+(3-2) {
		t.Fatalf("release=%v Waited=%v, want 3/3", release, b.Waited)
	}
	if state != 3 {
		t.Fatalf("state-machine waiter stuck in state %d", state)
	}
}

// TestWakeAfterOrdering: WakeAfter respects (time, sequence) ordering
// against Schedule and scripted sleeps.
func TestWakeAfterOrdering(t *testing.T) {
	e := sim.New()
	var order []string
	state := 0
	e.Spawn("cb", func(p *sim.Proc) {
		if state == 0 {
			state = 1
			p.WakeAfter(2)
			return
		}
		order = append(order, "cb")
	})
	Script(e, "g", Sleep(2), Do(func(*sim.Proc) { order = append(order, "g") }))
	e.Schedule(2, func() { order = append(order, "fn") })
	e.Run()
	// Everything fires at t=2; ties break by scheduling sequence. Spawn
	// order gives cb's first step seq 1, g's seq 2, and fn is seq 3. At
	// t=0, cb steps and schedules its wake (seq 4), then g schedules its
	// sleep's end (seq 5). So t=2 runs fn, cb, g.
	want := []string{"fn", "cb", "g"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestWakeAtPastSchedulesNothing: WakeAt on a time already reached carries
// on inline without an event; a future time wakes exactly then.
func TestWakeAtPastSchedulesNothing(t *testing.T) {
	e := sim.New()
	var woke []float64
	step := 0
	e.Spawn("p", func(p *sim.Proc) {
		woke = append(woke, p.Now())
		switch step {
		case 0:
			step = 1
			p.WakeAfter(5)
		case 1:
			step = 2
			if p.WakeAt(3) {
				t.Error("WakeAt(3) at t=5 scheduled a wake")
			}
			if e.Len() != 0 {
				t.Errorf("%d events pending after a past WakeAt", e.Len())
			}
			if !p.WakeAt(7.5) {
				t.Error("WakeAt(7.5) at t=5 did not schedule")
			}
		}
	})
	e.Run()
	if len(woke) != 3 || woke[2] != 7.5 {
		t.Fatalf("steps at %v, want [0 5 7.5]", woke)
	}
}

// TestAllocsEventDispatch is the zero-allocation guard on the engine's
// event-dispatch hot path: steady-state scheduling, heap push/pop, store
// handoff and process resume must not allocate at all. Enforced in CI
// without race instrumentation; any regression fails here.
func TestAllocsEventDispatch(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := sim.New()
	s := sim.NewStore[int](e, 1)
	gate := sim.NewCond(e)
	sent, quota := 0, 0
	e.Spawn("prod", func(p *sim.Proc) {
		if sent >= quota {
			gate.Register(p) // quota spent: park until the next round
			return
		}
		if !s.TryPut(p, 0, p.Now()) {
			return
		}
		sent++
		p.WakeAfter(1)
	})
	e.Spawn("cons", func(p *sim.Proc) {
		for {
			if _, _, ready := s.TryGet(p, p.Now()); !ready {
				return
			}
		}
	})
	round := func() {
		quota += 100
		gate.Broadcast()
		e.Run()
	}
	round() // warm the event queue and waiter lists to steady-state capacity
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("event dispatch allocates %v allocs per 100 simulated handoffs, want 0", avg)
	}
	if sent != 52*100 { // our warm-up, AllocsPerRun's own warm-up, and 50 measured rounds
		t.Fatalf("sent %d values, want %d", sent, 52*100)
	}
}
