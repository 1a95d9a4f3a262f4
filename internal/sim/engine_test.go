package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datastall/internal/sim"
	. "datastall/internal/sim/simtest"
)

func TestSleepOrdering(t *testing.T) {
	e := sim.New()
	var order []int
	record := func(v int) Step { return Do(func(*sim.Proc) { order = append(order, v) }) }
	Script(e, "a", Sleep(2), record(2))
	Script(e, "b", Sleep(1), record(1))
	Script(e, "c", Sleep(3), record(3))
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	e := sim.New()
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		Script(e, name, Sleep(5), Do(func(*sim.Proc) { order = append(order, name) }))
	}
	e.Run()
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("tie-break violated: %v", order)
	}
}

func TestScheduleCallback(t *testing.T) {
	e := sim.New()
	fired := 0.0
	e.Schedule(7, func() { fired = e.Now() })
	e.Run()
	if fired != 7 {
		t.Fatalf("callback at %v, want 7", fired)
	}
}

func TestStoreBlockingFIFO(t *testing.T) {
	e := sim.New()
	s := sim.NewStore[int](e, 2)
	var got []int
	var producer []Step
	for i := 0; i < 5; i++ {
		producer = append(producer, Put(s, i))
	}
	Script(e, "producer", producer...)
	var v int
	ok := true
	Script(e, "consumer", Repeat(5, Sleep(1), Get(s, &v, &ok), Do(func(*sim.Proc) {
		if !ok {
			t.Errorf("store closed early")
		}
		got = append(got, v)
	}))...)
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d values", len(got))
	}
}

func TestStorePutBlocksWhenFull(t *testing.T) {
	e := sim.New()
	s := sim.NewStore[int](e, 1)
	var putDone float64
	// The second put must block until the consumer drains at t=10.
	Script(e, "producer", Put(s, 1), Put(s, 2), Do(func(p *sim.Proc) { putDone = p.Now() }))
	Script(e, "consumer", Sleep(10), Get(s, nil, nil), Sleep(10), Get(s, nil, nil))
	e.Run()
	if putDone != 10 {
		t.Fatalf("second put completed at %v, want 10", putDone)
	}
	if s.PutBlocked != 10 {
		t.Fatalf("PutBlocked = %v, want 10", s.PutBlocked)
	}
}

func TestStoreCloseUnblocksGetter(t *testing.T) {
	e := sim.New()
	s := sim.NewStore[int](e, 4)
	ok := true
	Script(e, "getter", Get(s, nil, &ok))
	Script(e, "closer", Sleep(3), Do(func(*sim.Proc) { s.Close() }))
	e.Run()
	if ok {
		t.Fatal("Get on closed empty store should return ok=false")
	}
}

func TestBarrier(t *testing.T) {
	e := sim.New()
	b := sim.NewBarrier(e, 3)
	var done []float64
	for i := 0; i < 3; i++ {
		Script(e, "w", Sleep(float64(i+1)), Wait(b), Do(func(p *sim.Proc) { done = append(done, p.Now()) }))
	}
	e.Run()
	if len(done) != 3 {
		t.Fatalf("only %d passed barrier", len(done))
	}
	for _, d := range done {
		if d != 3 {
			t.Fatalf("barrier released at %v, want 3", d)
		}
	}
	if b.Waited != 2+1 {
		t.Fatalf("Waited = %v, want 3", b.Waited)
	}
}

func TestBarrierReusable(t *testing.T) {
	e := sim.New()
	b := sim.NewBarrier(e, 2)
	rounds := 0
	for i := 0; i < 2; i++ {
		steps := append(Repeat(5, Sleep(1), Wait(b)), Do(func(*sim.Proc) { rounds++ }))
		Script(e, "w", steps...)
	}
	e.Run()
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
}

func TestBandwidthServerQueueing(t *testing.T) {
	e := sim.New()
	d := sim.NewBandwidthServer(e)
	var t1, t2 float64
	request := func() float64 { return d.RequestAsync(100, 10, 0) } // 10s service
	Script(e, "a", Await(request), Do(func(p *sim.Proc) { t1 = p.Now() }))
	// b queues behind a and finishes at 20.
	Script(e, "b", Sleep(1), Await(request), Do(func(p *sim.Proc) { t2 = p.Now() }))
	e.Run()
	if t1 != 10 {
		t.Fatalf("t1 = %v, want 10", t1)
	}
	if t2 != 20 {
		t.Fatalf("t2 = %v, want 20", t2)
	}
	if d.Waited != 9 {
		t.Fatalf("Waited = %v, want 9", d.Waited)
	}
	if d.Bytes != 200 || d.Requests != 2 {
		t.Fatalf("stats: bytes=%v reqs=%d", d.Bytes, d.Requests)
	}
}

func TestBandwidthServerOverhead(t *testing.T) {
	e := sim.New()
	d := sim.NewBandwidthServer(e)
	if done := d.RequestAsync(100, 100, 2.5); done != 3.5 {
		t.Fatalf("done = %v, want 3.5", done)
	}
}

// TestRunTearsDownParkedProcs: a process registered forever on a store ends
// the run without hanging and is never stepped again.
func TestRunTearsDownParkedProcs(t *testing.T) {
	e := sim.New()
	s := sim.NewStore[int](e, 1)
	reached := false
	Script(e, "stuck", Get(s, nil, nil), Do(func(*sim.Proc) { reached = true })) // never satisfied
	Script(e, "other", Sleep(1))
	e.Run() // must not hang
	if reached {
		t.Fatal("stuck proc should never have been resumed")
	}
	if e.Len() != 0 {
		t.Fatalf("%d events left after Run", e.Len())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := sim.New()
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewStore[float64](e, 3)
		var out []float64
		for i := 0; i < 4; i++ {
			d := rng.Float64()
			var val float64
			Script(e, "p", Repeat(10, Sleep(d), Do(func(p *sim.Proc) { val = p.Now() }),
				Until(func(p *sim.Proc) bool { return s.TryPut(p, val, p.Now()) }))...)
		}
		var v float64
		Script(e, "c", Repeat(40, Get(s, &v, nil), Do(func(*sim.Proc) { out = append(out, v) }))...)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) || len(a) != 40 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, the engine clock after Run equals
// the maximum duration, and every process ran to completion.
func TestSleepClockProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 50 {
			durs = durs[:50]
		}
		e := sim.New()
		max := 0.0
		count := 0
		for _, u := range durs {
			d := float64(u) / 100
			if d > max {
				max = d
			}
			Script(e, "p", Sleep(d), Do(func(*sim.Proc) { count++ }))
		}
		e.Run()
		return e.Now() == max && count == len(durs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bounded store never exceeds its capacity and preserves FIFO
// order for a single producer/consumer pair.
func TestStoreFIFOProperty(t *testing.T) {
	f := func(capacity uint8, n uint8) bool {
		c := int(capacity)%5 + 1
		items := int(n)%100 + 1
		e := sim.New()
		s := sim.NewStore[int](e, c)
		ok := true
		check := Do(func(*sim.Proc) {
			if s.Len() > c {
				ok = false
			}
		})
		var producer []Step
		for i := 0; i < items; i++ {
			producer = append(producer, Put(s, i), check)
		}
		Script(e, "prod", producer...)
		var v int
		good, want := true, 0
		Script(e, "cons", Repeat(items, Sleep(0.01), Get(s, &v, &good), Do(func(*sim.Proc) {
			if !good || v != want {
				ok = false
			}
			want++
		}))...)
		e.Run()
		return ok && want == items
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
