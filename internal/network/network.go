// Package network models the commodity Ethernet connecting training servers
// (40 Gbps in the paper's SKUs). Partitioned caching fetches remote-cached
// items over long-lived TCP connections (§4.2); the only property that
// matters is delivered bandwidth, which must exceed local-storage bandwidth
// for remote-DRAM fetches to pay off.
package network

import (
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// LinkSpec characterises a server NIC.
type LinkSpec struct {
	Name string
	// RawBW is the line rate in bytes/s.
	RawBW float64
	// Efficiency is the fraction of line rate TCP delivers for bulk
	// transfers (protocol overhead, stack costs).
	Efficiency float64
	// RTT is the per-transfer round-trip latency in seconds.
	RTT float64
}

// Ethernet40G is the paper's 40 Gbps cluster fabric.
var Ethernet40G = LinkSpec{
	Name:  "40GbE",
	RawBW: 40e9 / 8, Efficiency: 0.70,
	RTT: 100e-6,
}

// Ethernet10G is the low end of publicly available cloud GPU instances.
var Ethernet10G = LinkSpec{
	Name:  "10GbE",
	RawBW: 10e9 / 8, Efficiency: 0.70,
	RTT: 100e-6,
}

// NIC is one server's network interface: a FIFO bandwidth server so that
// concurrent remote fetches and gradient exchange contend realistically.
type NIC struct {
	Spec LinkSpec

	eng *sim.Engine
	srv *sim.BandwidthServer

	// Trace records per-transfer completions when enabled.
	Trace *stats.TimeSeries
}

// NewNIC returns an idle NIC attached to e.
func NewNIC(e *sim.Engine, spec LinkSpec) *NIC {
	return &NIC{Spec: spec, eng: e, srv: sim.NewBandwidthServer(e)}
}

// EnableTrace records per-transfer completion events.
func (n *NIC) EnableTrace(name string) { n.Trace = &stats.TimeSeries{Name: name} }

// EffectiveBW returns the delivered bulk bandwidth in bytes/s.
func (n *NIC) EffectiveBW() float64 { return n.Spec.RawBW * n.Spec.Efficiency }

// TransferAsync books a transfer of bytes through this NIC behind its
// queued transfers and returns the completion time. nMsgs is the number of
// request/response exchanges (each pays one RTT). A transfer of nothing is
// free: it books no request and completes at once.
func (n *NIC) TransferAsync(bytes float64, nMsgs int) float64 {
	if bytes <= 0 && nMsgs <= 0 {
		return n.eng.Now()
	}
	return n.srv.RequestAsync(bytes, n.EffectiveBW(), float64(nMsgs)*n.Spec.RTT)
}

// Complete records a finished transfer of bytes in the trace (when
// enabled) at the current simulated time; senders call it once the
// completion time TransferAsync returned has been reached.
func (n *NIC) Complete(bytes float64) {
	if n.Trace != nil {
		n.Trace.Add(n.eng.Now(), bytes)
	}
}

// TotalBytes returns bytes transferred through this NIC.
func (n *NIC) TotalBytes() float64 { return n.srv.Bytes }

// AccountBytes records background traffic (e.g. gradient exchange whose
// latency is already folded into iteration time) for bandwidth reporting
// without modelling queueing for it.
func (n *NIC) AccountBytes(bytes float64) { n.srv.Bytes += bytes }

// BusyTime returns total seconds the NIC was transferring.
func (n *NIC) BusyTime() float64 { return n.srv.Busy }

// Fabric connects the NICs of a distributed job. A remote fetch crosses the
// serving server's NIC and then the requesting server's NIC: the source side
// pays one RTT per item, and the receive side (usually overlapped) is
// charged without a second RTT to avoid double-counting latency.
// Store-and-forward at message granularity is irrelevant at these sizes, so
// the two transfers are issued back to back.
type Fabric struct {
	NICs []*NIC
}

// NewFabric builds a fabric over n servers with the given link spec.
func NewFabric(e *sim.Engine, n int, spec LinkSpec) *Fabric {
	f := &Fabric{NICs: make([]*NIC, n)}
	for i := range f.NICs {
		f.NICs[i] = NewNIC(e, spec)
	}
	return f
}

// TotalBytes returns bytes moved across all NICs (each fetch counted twice,
// once per endpoint — the usual per-NIC accounting).
func (f *Fabric) TotalBytes() float64 {
	t := 0.0
	for _, n := range f.NICs {
		t += n.TotalBytes()
	}
	return t
}
