package trainer

import (
	"fmt"
	"io"
)

// Event is a typed progress notification streamed to Observers while a Job
// runs. Concrete events are JobStarted, EpochStarted, EpochEnded and
// JobEnded. Times are simulated seconds.
type Event interface{ isEvent() }

// JobStarted is emitted once, before the first epoch begins.
type JobStarted struct {
	Time float64
	// Epochs, Servers and GPUsPerServer are the resolved (defaulted) job
	// shape.
	Epochs        int
	Servers       int
	GPUsPerServer int
}

// EpochStarted is emitted when an epoch's first iteration may begin.
type EpochStarted struct {
	Time  float64
	Epoch int
}

// EpochEnded is emitted at an epoch's final synchronization point with that
// epoch's statistics: timing, stall time, and the fetch counters (cache
// hits/misses, disk and network bytes) accumulated during the epoch.
type EpochEnded struct {
	Time  float64
	Epoch int
	// Stats is the finished epoch's statistics, identical to the matching
	// entry of the final Result.Epochs.
	Stats EpochStats
	// CacheUsedBytes is the fetcher's cache occupancy (summed across
	// servers) at the epoch boundary; zero when the configured fetch path
	// has no cache (Synthetic/FullyCached) or does not report occupancy.
	CacheUsedBytes float64
}

// JobEnded is emitted once, after the last epoch, with the final Result.
type JobEnded struct {
	Time   float64
	Result *Result
}

func (JobStarted) isEvent()   {}
func (EpochStarted) isEvent() {}
func (EpochEnded) isEvent()   {}
func (JobEnded) isEvent()     {}

// Observer receives Events during RunContext. Observe is called
// synchronously from the run (on the simulation goroutine), in event order; implementations must not block on the job itself.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// NewConsoleObserver returns an Observer that renders one line per event to
// w — the standard progress stream for CLIs (`runsuite -progress`).
func NewConsoleObserver(w io.Writer) Observer {
	return ObserverFunc(func(ev Event) {
		switch e := ev.(type) {
		case JobStarted:
			fmt.Fprintf(w, "job: %d epoch(s), %d server(s) x %d GPU(s)\n",
				e.Epochs, e.Servers, e.GPUsPerServer)
		case EpochStarted:
			fmt.Fprintf(w, "epoch %d: started t=%.2fs\n", e.Epoch, e.Time)
		case EpochEnded:
			hits, misses := e.Stats.Hits, e.Stats.Misses
			hitPct := 0.0
			if hits+misses > 0 {
				hitPct = 100 * float64(hits) / float64(hits+misses)
			}
			fmt.Fprintf(w, "epoch %d: %.2fs, stall %.1f%%, hit %.1f%%, disk %.1f MiB, cache %.1f MiB\n",
				e.Epoch, e.Stats.Duration, 100*e.Stats.StallFraction(), hitPct,
				e.Stats.DiskBytes/(1024*1024), e.CacheUsedBytes/(1024*1024))
		case JobEnded:
			fmt.Fprintf(w, "job done: %d epoch(s) in %.2fs\n", len(e.Result.Epochs), e.Time)
		}
	})
}

// DiskTraceObserver returns the built-in observer that enables disk-I/O
// time-series collection (Result.DiskTrace); it replaced the removed
// Config.TraceDiskIO flag.
func DiskTraceObserver() Observer { return diskTraceObserver{} }

// CPUTraceObserver returns the built-in observer that enables prep-CPU
// time-series collection (Result.CPUTrace); it replaced the removed
// Config.TraceCPU flag.
func CPUTraceObserver() Observer { return cpuTraceObserver{} }

type diskTraceObserver struct{}
type cpuTraceObserver struct{}

func (diskTraceObserver) Observe(Event) {}
func (cpuTraceObserver) Observe(Event)  {}

// observers is the fan-out list attached to a running job.
type observers []Observer

func (o observers) emit(ev Event) {
	for _, ob := range o {
		ob.Observe(ev)
	}
}

// cacheSizer is implemented by fetchers that can report cache occupancy
// (summed across servers); EpochEnded.CacheUsedBytes comes from here.
type cacheSizer interface {
	CacheUsedBytes() float64
}
