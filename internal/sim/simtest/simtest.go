// Package simtest writes test processes for the sim engine as linear
// scripts — sleep, put, get, wait — instead of hand-rolled state machines.
package simtest

import "datastall/internal/sim"

// Step is one stage of a Script. It reports whether the stage is complete.
// A stage that reports false has registered the process with a primitive or
// scheduled its wake-up, and runs again when the process is resumed. Steps
// reset their own state on completion, so one Step may appear in a script
// more than once.
type Step func(p *sim.Proc) bool

// Script spawns steps on e as one process that runs them in order.
func Script(e *sim.Engine, name string, steps ...Step) *sim.Proc {
	i := 0
	return e.Spawn(name, func(p *sim.Proc) {
		for i < len(steps) && steps[i](p) {
			i++
		}
	})
}

// Do runs f once and completes.
func Do(f func(p *sim.Proc)) Step {
	return func(p *sim.Proc) bool { f(p); return true }
}

// Until retries try at every resume until it reports true.
func Until(try func(p *sim.Proc) bool) Step { return Step(try) }

// Sleep waits d simulated seconds.
func Sleep(d float64) Step {
	armed := false
	return func(p *sim.Proc) bool {
		if armed {
			armed = false
			return true
		}
		armed = true
		p.WakeAfter(d)
		return false
	}
}

// Await calls book once — it books a device operation and returns the
// completion time — and waits until then (not at all if that time has
// already been reached).
func Await(book func() float64) Step {
	armed := false
	return func(p *sim.Proc) bool {
		if armed {
			armed = false
			return true
		}
		armed = p.WakeAt(book())
		return !armed
	}
}

// Put appends v to s, waiting while s is full; the whole wait counts
// towards s.PutBlocked.
func Put[T any](s *sim.Store[T], v T) Step {
	waiting, since := false, 0.0
	return func(p *sim.Proc) bool {
		if !waiting {
			waiting, since = true, p.Now()
		}
		if !s.TryPut(p, v, since) {
			return false
		}
		waiting = false
		return true
	}
}

// Get pops the oldest value of s into *v (nil discards it), waiting while s
// is empty; *ok (if non-nil) reports false when s was closed empty.
func Get[T any](s *sim.Store[T], v *T, ok *bool) Step {
	waiting, since := false, 0.0
	return func(p *sim.Proc) bool {
		if !waiting {
			waiting, since = true, p.Now()
		}
		got, good, ready := s.TryGet(p, since)
		if !ready {
			return false
		}
		waiting = false
		if v != nil {
			*v = got
		}
		if ok != nil {
			*ok = good
		}
		return true
	}
}

// Wait passes barrier b, adding the time spent waiting to b.Waited.
func Wait(b *sim.Barrier) Step {
	waiting, since := false, 0.0
	return func(p *sim.Proc) bool {
		if waiting {
			b.Waited += p.Now() - since
			waiting = false
			return true
		}
		if b.Arrive(p) {
			return true
		}
		waiting, since = true, p.Now()
		return false
	}
}

// Repeat returns steps repeated n times, for scripts with a loop.
func Repeat(n int, steps ...Step) []Step {
	out := make([]Step, 0, n*len(steps))
	for i := 0; i < n; i++ {
		out = append(out, steps...)
	}
	return out
}
