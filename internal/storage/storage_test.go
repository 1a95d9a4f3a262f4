package storage

import (
	"math"
	"testing"

	"datastall/internal/sim"
	"datastall/internal/sim/simtest"
	"datastall/internal/stats"
)

func TestEffectiveRandomBW(t *testing.T) {
	// HDD random reads of ~300KB items should land in the paper's
	// 15-50 MB/s window (Table 2).
	bw := HDD.EffectiveRandomBW(300 * stats.KiB)
	if mbps := bw / stats.MiB; mbps < 15 || mbps > 50 {
		t.Fatalf("HDD effective random bw = %.1f MB/s, want 15-50", mbps)
	}
	// SSD random reads stay near the rated 530 MB/s.
	bw = SSD.EffectiveRandomBW(150 * stats.KiB)
	if mbps := bw / stats.MiB; mbps < 400 || mbps > 560 {
		t.Fatalf("SSD effective random bw = %.1f MB/s, want ~530", mbps)
	}
}

func TestDiskReadTiming(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, DeviceSpec{Name: "t", SeqBW: 100, SeekTime: 1})
	// 2 seeks (2s) + 200/100 (2s) = 4s.
	if done := d.ReadRandomAsync(200, 2); done != 4 {
		t.Fatalf("read finishes at %v, want 4", done)
	}
	if d.TotalBytes() != 200 || d.TotalRequests() != 1 {
		t.Fatalf("stats: %v bytes %d reqs", d.TotalBytes(), d.TotalRequests())
	}
}

func TestDiskFIFOContention(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, DeviceSpec{Name: "t", SeqBW: 100, SeekTime: 0})
	var t1, t2 float64
	e.Schedule(0, func() { t1 = d.ReadSequentialAsync(1000) }) // 10s
	e.Schedule(1, func() { t2 = d.ReadSequentialAsync(100) })  // queues: done at 11
	e.Run()
	if t1 != 10 || t2 != 11 {
		t.Fatalf("t1=%v t2=%v, want 10, 11", t1, t2)
	}
	if d.QueueDelay() != 9 {
		t.Fatalf("queue delay %v, want 9", d.QueueDelay())
	}
}

func TestDiskTrace(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, SSD)
	d.EnableTrace("io")
	read := simtest.Repeat(3,
		simtest.Await(func() float64 { return d.ReadRandomAsync(stats.MiB, 1) }),
		simtest.Do(func(*sim.Proc) { d.Complete(stats.MiB) }))
	simtest.Script(e, "r", read...)
	e.Run()
	if d.Trace.Len() != 3 {
		t.Fatalf("trace has %d points", d.Trace.Len())
	}
	if math.Abs(d.Trace.Sum()-3*stats.MiB) > 1 {
		t.Fatalf("trace sum %v", d.Trace.Sum())
	}
	if d.Trace.Times[2] != e.Now() {
		t.Fatalf("last trace point at %v, want the completion time %v", d.Trace.Times[2], e.Now())
	}
}

func TestMemoryRead(t *testing.T) {
	m := NewMemory(1000)
	if d := m.ReadAsync(500); d != 0.5 {
		t.Fatalf("memory read takes %v, want 0.5", d)
	}
	if m.Bytes != 500 {
		t.Fatalf("bytes %v", m.Bytes)
	}
}

func TestZeroByteReadsAreFree(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, SSD)
	m := NewMemory(1000)
	e.Schedule(2, func() {
		if done := d.ReadRandomAsync(0, 0); done != 2 {
			t.Errorf("zero random read finishes at %v, want now (2)", done)
		}
		if done := d.ReadSequentialAsync(0); done != 2 {
			t.Errorf("zero sequential read finishes at %v, want now (2)", done)
		}
	})
	e.Run()
	if dur := m.ReadAsync(0); dur != 0 {
		t.Fatalf("zero memory read took %v", dur)
	}
	if d.TotalRequests() != 0 || m.Bytes != 0 {
		t.Fatalf("zero reads were booked: %d requests, %v memory bytes", d.TotalRequests(), m.Bytes)
	}
}
