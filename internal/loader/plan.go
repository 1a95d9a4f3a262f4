package loader

import (
	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/sim"
)

// OpKind names the device a planned operation occupies.
type OpKind uint8

// Device operation kinds.
const (
	// OpDiskRandom reads Bytes spread over N separately-located files from
	// server Dev's disk (one seek each).
	OpDiskRandom OpKind = iota
	// OpDiskSeq reads Bytes laid out contiguously from server Dev's disk.
	OpDiskSeq
	// OpTransfer moves Bytes through NIC Dev, paying N round trips.
	OpTransfer
	// OpMemRead copies Bytes out of server Dev's DRAM.
	OpMemRead
)

// Op is one device operation of a planned fetch.
type Op struct {
	Kind  OpKind
	Dev   int
	Bytes float64
	N     int
}

// AppendOp appends op to ops unless it moves no bytes and pays no
// per-request cost: such an operation is free on every device, so a plan
// never issues it (and no trace records it).
func AppendOp(ops []Op, op Op) []Op {
	if op.Bytes <= 0 && (op.N <= 0 || op.Kind == OpDiskSeq || op.Kind == OpMemRead) {
		return ops
	}
	return append(ops, op)
}

// AppendLocal appends the operations of a fetch served by server alone: one
// random storage read for r's misses, then one DRAM copy for its hits.
func AppendLocal(ops []Op, server int, r FetchResult) []Op {
	ops = AppendOp(ops, Op{Kind: OpDiskRandom, Dev: server, Bytes: r.DiskBytes, N: r.DiskItems})
	return AppendOp(ops, Op{Kind: OpMemRead, Dev: server, Bytes: r.MemBytes})
}

// issue books op on cl's devices at the current time and reports whether p
// must wait for it, in which case p's wake-up is scheduled at the
// completion time. A DRAM copy always takes time.
func (op *Op) issue(cl *cluster.Cluster, p *sim.Proc) bool {
	switch op.Kind {
	case OpDiskRandom:
		return p.WakeAt(cl.Servers[op.Dev].Disk.ReadRandomAsync(op.Bytes, op.N))
	case OpDiskSeq:
		return p.WakeAt(cl.Servers[op.Dev].Disk.ReadSequentialAsync(op.Bytes))
	case OpTransfer:
		return p.WakeAt(cl.Fabric.NICs[op.Dev].TransferAsync(op.Bytes, op.N))
	default:
		p.WakeAfter(cl.Servers[op.Dev].Mem.ReadAsync(op.Bytes))
		return true
	}
}

// complete records op's completion in its device's trace.
func (op *Op) complete(cl *cluster.Cluster) {
	switch op.Kind {
	case OpDiskRandom, OpDiskSeq:
		cl.Servers[op.Dev].Disk.Complete(op.Bytes)
	case OpTransfer:
		cl.Fabric.NICs[op.Dev].Complete(op.Bytes)
	}
}

// PlannedFetch is one batch fetch in flight for a simulated process: Start
// plans it, and Advance issues its device operations strictly one after
// another, each booked when the previous one completes. A process keeps one
// PlannedFetch and reuses it for every batch, so planning allocates nothing
// in steady state. It must not be copied after the first Start.
type PlannedFetch struct {
	// Result is the planned fetch's outcome, valid from Start on.
	Result FetchResult
	ops    []Op
	// small backs ops for plans of up to four operations (every
	// single-server plan), so even a process's first fetches allocate
	// nothing.
	small [4]Op
	next  int
	busy  bool // ops[next] is booked and the process is waiting for it
}

// Start plans items on server through f.
func (pf *PlannedFetch) Start(f Fetcher, server int, items []dataset.ItemID) {
	if pf.ops == nil {
		pf.ops = pf.small[:0]
	}
	pf.Result, pf.ops = f.Plan(server, items, pf.ops[:0])
	pf.next, pf.busy = 0, false
}

// Advance issues the remaining operations on cl's devices. It returns false
// when one needs simulated time — p's wake-up is scheduled, and its step
// must return and call Advance again when resumed — and true once every
// operation has completed.
func (pf *PlannedFetch) Advance(p *sim.Proc, cl *cluster.Cluster) bool {
	for ; pf.next < len(pf.ops); pf.next++ {
		op := &pf.ops[pf.next]
		if !pf.busy && op.issue(cl, p) {
			pf.busy = true
			return false
		}
		pf.busy = false
		op.complete(cl)
	}
	return true
}
