// Package storage models the block devices from the paper's two server SKUs
// (Table 2): a SATA SSD with ~530 MB/s random reads and an st1-style magnetic
// hard drive whose random-read throughput collapses to tens of MB/s because
// of seek overhead while sequential scans sustain much more.
package storage

import (
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// DeviceSpec characterises a storage device.
type DeviceSpec struct {
	Name string
	// SeqBW is the sustained sequential read bandwidth (bytes/s).
	SeqBW float64
	// RandBW is the effective random-read bandwidth for small reads
	// (bytes/s); for disks with nontrivial SeekTime this emerges from the
	// seek model instead and RandBW is only reported.
	RandBW float64
	// SeekTime is the per-random-request positioning overhead (seconds).
	SeekTime float64
}

// Paper device specs (Table 2 and Fig 1): SSD 530 MB/s random reads; HDD
// 15–50 MB/s random (we model seek so the effective rate depends on item
// size), ~500 MB/s sequential for the st1 throughput-optimised volume.
var (
	SSD = DeviceSpec{
		Name:  "ssd",
		SeqBW: 560 * stats.MiB, RandBW: 530 * stats.MiB,
		SeekTime: 10e-6,
	}
	HDD = DeviceSpec{
		Name:  "hdd",
		SeqBW: 500 * stats.MiB, RandBW: 30 * stats.MiB,
		SeekTime: 8e-3,
	}
)

// Disk is a simulated storage device: a FIFO bandwidth server with per-seek
// overhead and an I/O trace for the paper's disk-activity figures (Fig 11).
type Disk struct {
	Spec DeviceSpec

	eng *sim.Engine
	srv *sim.BandwidthServer

	// Trace records (completion time, bytes) per request when enabled.
	Trace *stats.TimeSeries
}

// NewDisk returns a disk with the given spec attached to e.
func NewDisk(e *sim.Engine, spec DeviceSpec) *Disk {
	return &Disk{Spec: spec, eng: e, srv: sim.NewBandwidthServer(e)}
}

// EnableTrace starts recording per-request completions.
func (d *Disk) EnableTrace(name string) {
	d.Trace = &stats.TimeSeries{Name: name}
}

// ReadRandomAsync books a read of bytes spread over nItems
// separately-located files — each item costs one seek — behind the
// device's queued requests, and returns its completion time. A read of
// nothing is free: it books no request and completes at once.
func (d *Disk) ReadRandomAsync(bytes float64, nItems int) float64 {
	if bytes <= 0 && nItems <= 0 {
		return d.eng.Now()
	}
	return d.srv.RequestAsync(bytes, d.Spec.SeqBW, float64(nItems)*d.Spec.SeekTime)
}

// ReadSequentialAsync books a read of bytes laid out contiguously (one seek
// total) and returns its completion time; a zero-byte read is free.
func (d *Disk) ReadSequentialAsync(bytes float64) float64 {
	if bytes <= 0 {
		return d.eng.Now()
	}
	return d.srv.RequestAsync(bytes, d.Spec.SeqBW, d.Spec.SeekTime)
}

// Complete records a finished read of bytes in the I/O trace (when
// enabled) at the current simulated time. Readers call it once the
// completion time an *Async read returned has been reached, so the trace
// holds completion instants.
func (d *Disk) Complete(bytes float64) {
	if d.Trace != nil {
		d.Trace.Add(d.eng.Now(), bytes)
	}
}

// TotalBytes returns total bytes read from the device.
func (d *Disk) TotalBytes() float64 { return d.srv.Bytes }

// TotalRequests returns the number of read requests serviced.
func (d *Disk) TotalRequests() int64 { return d.srv.Requests }

// BusyTime returns total seconds the device spent servicing requests.
func (d *Disk) BusyTime() float64 { return d.srv.Busy }

// QueueDelay returns total seconds requests spent queued behind others.
func (d *Disk) QueueDelay() float64 { return d.srv.Waited }

// EffectiveRandomBW returns the throughput of reading items of avgItem bytes
// in random order: bytes move at SeqBW but every item pays SeekTime.
func (spec DeviceSpec) EffectiveRandomBW(avgItem float64) float64 {
	perItem := spec.SeekTime + avgItem/spec.SeqBW
	return avgItem / perItem
}

// Memory models DRAM as a read source for cached items. Reads are modelled
// as a fixed very high bandwidth without queueing (the paper's analysis notes
// cache fetch is tens of GB/s and never the bottleneck, Appendix C.1).
type Memory struct {
	// BW is the copy bandwidth in bytes/s.
	BW float64
	// Bytes counts bytes served from memory.
	Bytes float64
}

// NewMemory returns a memory source with the given bandwidth.
func NewMemory(bw float64) *Memory { return &Memory{BW: bw} }

// ReadAsync serves bytes from DRAM and returns the copy time; a zero-byte
// read is free.
func (m *Memory) ReadAsync(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	m.Bytes += bytes
	return bytes / m.BW
}
