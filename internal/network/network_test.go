package network

import (
	"math"
	"testing"

	"datastall/internal/sim"
	"datastall/internal/sim/simtest"
	"datastall/internal/stats"
)

func TestEffectiveBWExceedsSSD(t *testing.T) {
	// §4.2: cross-node bandwidth must be several times local SATA SSD
	// read bandwidth (530 MB/s) for partitioned caching to make sense.
	if bw := Ethernet40G.RawBW * Ethernet40G.Efficiency; bw < 3*530*stats.MiB {
		t.Fatalf("40GbE effective bw %.0f MB/s too low", bw/stats.MiB)
	}
}

func TestTransferTiming(t *testing.T) {
	e := sim.New()
	n := NewNIC(e, LinkSpec{Name: "t", RawBW: 1000, Efficiency: 0.5, RTT: 1})
	// 2 RTT (2s) + 500/500 (1s) = 3s.
	if done := n.TransferAsync(500, 2); done != 3 {
		t.Fatalf("transfer done at %v, want 3", done)
	}
	if n.TotalBytes() != 500 {
		t.Fatalf("bytes %v", n.TotalBytes())
	}
}

func TestNICContention(t *testing.T) {
	e := sim.New()
	n := NewNIC(e, LinkSpec{Name: "t", RawBW: 100, Efficiency: 1, RTT: 0})
	t1 := n.TransferAsync(1000, 0)
	t2 := n.TransferAsync(1000, 0)
	if t1 != 10 || t2 != 20 {
		t.Fatalf("t1=%v t2=%v, want FIFO 10/20", t1, t2)
	}
}

// TestFabricRemoteFetchChargesBothEnds: a remote fetch is the serving NIC's
// transfer followed by the receiving NIC's, and each endpoint is charged.
func TestFabricRemoteFetchChargesBothEnds(t *testing.T) {
	e := sim.New()
	f := NewFabric(e, 2, LinkSpec{Name: "t", RawBW: 100, Efficiency: 1, RTT: 0})
	f.NICs[1].EnableTrace("src")
	simtest.Script(e, "x",
		simtest.Await(func() float64 { return f.NICs[1].TransferAsync(500, 1) }),
		simtest.Do(func(*sim.Proc) { f.NICs[1].Complete(500) }),
		simtest.Await(func() float64 { return f.NICs[0].TransferAsync(500, 0) }))
	e.Run()
	if f.NICs[0].TotalBytes() != 500 || f.NICs[1].TotalBytes() != 500 {
		t.Fatalf("bytes: dst=%v src=%v", f.NICs[0].TotalBytes(), f.NICs[1].TotalBytes())
	}
	if math.Abs(f.TotalBytes()-1000) > 1e-9 {
		t.Fatalf("fabric total %v", f.TotalBytes())
	}
	if e.Now() != 10 || f.NICs[1].Trace.Times[0] != 5 {
		t.Fatalf("fetch done at %v (source leg at %v), want 10 (5)", e.Now(), f.NICs[1].Trace.Times[0])
	}
}

func TestZeroTransferFree(t *testing.T) {
	e := sim.New()
	n := NewNIC(e, Ethernet40G)
	if done := n.TransferAsync(0, 0); done != 0 {
		t.Fatalf("zero transfer finishes at %v", done)
	}
	if n.BusyTime() != 0 {
		t.Fatalf("zero transfer was booked: busy %v", n.BusyTime())
	}
}
