package sim

// Store is a bounded FIFO queue of values exchanged between processes. A
// capacity of 0 means unbounded.
//
// TryPut and TryGet either complete inline or register the process as a
// waiter and report not-ready; the store resumes the process when space
// frees (putters) or a value arrives (getters), and its step retries.
type Store[T any] struct {
	eng     *Engine
	cap     int
	buf     []T
	getters []*Proc
	putters []*Proc
	closed  bool

	// PutBlocked / GetBlocked accumulate the simulated seconds processes
	// spent blocked on this store; used for stall accounting.
	PutBlocked float64
	GetBlocked float64
}

// NewStore returns a store with the given capacity (0 = unbounded).
func NewStore[T any](e *Engine, capacity int) *Store[T] {
	return &Store[T]{eng: e, cap: capacity}
}

// Len returns the number of buffered values.
func (s *Store[T]) Len() int { return len(s.buf) }

// popProc removes and returns the head of a waiter list without allocating:
// the elements shift down in place so the backing array is reused forever.
func popProc(list *[]*Proc) *Proc {
	l := *list
	p := l[0]
	n := copy(l, l[1:])
	l[n] = nil
	*list = l[:n]
	return p
}

// TryPut either appends v (true) or registers p as a waiting putter and
// returns false, in which case the store resumes p when space frees and p's
// step must call TryPut again, passing the simulated time of its first
// attempt as since so PutBlocked counts the whole wait.
func (s *Store[T]) TryPut(p *Proc, v T, since float64) bool {
	if s.cap > 0 && len(s.buf) >= s.cap && !s.closed {
		s.putters = append(s.putters, p)
		return false
	}
	s.PutBlocked += s.eng.now - since
	s.buf = append(s.buf, v)
	if len(s.getters) > 0 {
		s.eng.wakeup(popProc(&s.getters))
	}
	return true
}

// TryGet either pops the oldest value (ready=true), reports closure on an
// empty store (ready=true, ok=false), or registers p as a waiting getter
// (ready=false), in which case the store resumes p when a value arrives and
// p's step must call TryGet again, passing the simulated time of its first
// attempt as since so GetBlocked counts the whole wait.
func (s *Store[T]) TryGet(p *Proc, since float64) (v T, ok, ready bool) {
	if len(s.buf) == 0 {
		if s.closed {
			s.GetBlocked += s.eng.now - since
			return v, false, true
		}
		s.getters = append(s.getters, p)
		return v, false, false
	}
	s.GetBlocked += s.eng.now - since
	v = s.buf[0]
	n := copy(s.buf, s.buf[1:])
	var zero T
	s.buf[n] = zero
	s.buf = s.buf[:n]
	if len(s.putters) > 0 {
		s.eng.wakeup(popProc(&s.putters))
	}
	return v, true, true
}

// Close marks the store closed and wakes all waiting getters and putters;
// subsequent TryGets on an empty store report ok=false. TryPuts after Close
// still succeed (used to flush trailing batches) but never wait.
func (s *Store[T]) Close() {
	s.closed = true
	for i, g := range s.getters {
		s.eng.wakeup(g)
		s.getters[i] = nil
	}
	s.getters = s.getters[:0]
	for i, q := range s.putters {
		s.eng.wakeup(q)
		s.putters[i] = nil
	}
	s.putters = s.putters[:0]
}

// Barrier synchronises n processes: each generation releases once all n
// have arrived. It is reusable across generations (like sync.WaitGroup
// cycles).
type Barrier struct {
	eng     *Engine
	n       int
	arrived int
	waiters []*Proc
	// Waited accumulates total blocked time across all processes. A
	// process that Arrives without releasing the barrier adds its own share
	// when it is resumed (see Arrive).
	Waited float64
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier needs n >= 1")
	}
	return &Barrier{eng: e, n: n}
}

// Arrive records p's arrival. If p completed the generation, every earlier
// arriver is woken and Arrive returns true (proceed inline). Otherwise p is
// registered as a waiter and Arrive returns false; p's step must return,
// and when the barrier resumes it, add its blocked time (now - arrival time)
// to Waited.
func (b *Barrier) Arrive(p *Proc) bool {
	b.arrived++
	if b.arrived >= b.n {
		b.arrived = 0
		for i, w := range b.waiters {
			b.eng.wakeup(w)
			b.waiters[i] = nil
		}
		b.waiters = b.waiters[:0]
		return true
	}
	b.waiters = append(b.waiters, p)
	return false
}

// BandwidthServer models a FIFO device (disk, NIC) characterised by a
// bandwidth and a fixed per-request overhead. Requests are serviced strictly
// in arrival order: a request arriving while the device is busy queues behind
// the in-flight work, which is how cross-job contention arises.
type BandwidthServer struct {
	eng       *Engine
	busyUntil float64

	// Stats.
	Bytes    float64 // total bytes transferred
	Requests int64   // number of requests
	Busy     float64 // total service time
	Waited   float64 // total queueing delay
}

// NewBandwidthServer returns an idle device.
func NewBandwidthServer(e *Engine) *BandwidthServer {
	return &BandwidthServer{eng: e}
}

// RequestAsync books a transfer of bytes at bwBytesPerSec with a fixed
// overhead (e.g. seek time) behind the device's queued work and returns its
// completion time; the caller waits for it with Proc.WakeAt.
func (d *BandwidthServer) RequestAsync(bytes, bwBytesPerSec, overhead float64) float64 {
	if bytes < 0 {
		panic("sim: negative transfer")
	}
	dur := overhead
	if bytes > 0 {
		dur += bytes / bwBytesPerSec
	}
	start := d.eng.now
	if d.busyUntil < start {
		d.busyUntil = start
	}
	d.Waited += d.busyUntil - start
	d.busyUntil += dur
	d.Bytes += bytes
	d.Requests++
	d.Busy += dur
	return d.busyUntil
}

// Utilization returns the fraction of time [0, now] the device was busy.
func (d *BandwidthServer) Utilization() float64 {
	if d.eng.now == 0 {
		return 0
	}
	return d.Busy / d.eng.now
}
