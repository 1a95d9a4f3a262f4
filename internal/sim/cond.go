package sim

// Cond is a condition variable for simulated processes. A process whose
// predicate is false registers and returns from its step; the next
// Broadcast resumes it, and its step re-checks the predicate (as with
// sync.Cond, a wake-up is not a promise that the predicate holds).
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition variable on engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Register queues p to be resumed at the next Broadcast; p's step must
// return right after calling it.
func (c *Cond) Register(p *Proc) { c.waiters = append(c.waiters, p) }

// Broadcast wakes every registered process (at the current simulated time).
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		c.eng.wakeup(w)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Waiting returns the number of registered waiters.
func (c *Cond) Waiting() int { return len(c.waiters) }
