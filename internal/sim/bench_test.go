package sim_test

import (
	"testing"

	"datastall/internal/sim"
)

// Event-dispatch benchmark: one op is a full 4-pair x 256-round store
// ping-pong (~2 events per handoff) between state-machine processes — the
// dispatch hot loop every simulation runs on. BENCH_2.json records the
// retired goroutine-engine rows for comparison.
//
//	go test -bench EventDispatch -benchmem ./internal/sim

const (
	benchPairs  = 4
	benchRounds = 256
)

// benchPingPong drives pairs independent producer/consumer pairs, each
// exchanging rounds values through a capacity-1 store: each step drains as
// far as the store allows, registers as a waiter when it can't, and is
// re-stepped by the store's wakeup.
func benchPingPong(pairs, rounds int) {
	e := sim.New()
	for i := 0; i < pairs; i++ {
		s := sim.NewStore[int](e, 1)
		sent, recvd := 0, 0
		e.Spawn("prod", func(p *sim.Proc) {
			for sent < rounds {
				if !s.TryPut(p, sent, p.Now()) {
					return
				}
				sent++
			}
		})
		e.Spawn("cons", func(p *sim.Proc) {
			for recvd < rounds {
				if _, _, ready := s.TryGet(p, p.Now()); !ready {
					return
				}
				recvd++
			}
		})
	}
	e.Run()
}

func BenchmarkEventDispatchCallback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPingPong(benchPairs, benchRounds)
	}
}
