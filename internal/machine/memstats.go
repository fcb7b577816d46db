package machine

import (
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// MemStats aggregates the host-footprint counters of every node memory
// and module disk in the machine: how much of the configured store the
// sparse row layout actually materialized, and how far checkpoint dedup
// compressed the platters. These are host-side observability numbers —
// they never enter kernel counters or simulated time, so reports that
// publish them stay byte-identical across hosts.
type MemStats struct {
	// Node memories.
	RowsConfigured   int64 // nodes × 1024 rows the hardware has
	RowsMaterialized int64 // rows backed by host storage (written at least once)
	CowCopies        int64 // write-triggered copies of the shared zero row
	MemResidentBytes int64 // host bytes backing node memories (data + parity)

	// Module disks (checkpoint store).
	DiskRowsCopied    int64 // snapshot segments stored as fresh rows
	DiskRowsShared    int64 // snapshot segments that deduped against resident rows
	DiskRowsZero      int64 // all-zero snapshot segments elided entirely
	DiskLogicalBytes  int64 // cumulative logical bytes written to the platters
	DiskResidentBytes int64 // unique payload bytes actually held on the host
}

// MemStats walks the machine's nodes and modules. Call it from the host
// (before Run starts or after it drains); it reads counters without
// synchronizing against in-flight shard workers.
func (m *Machine) MemStats() MemStats {
	var s MemStats
	for _, nd := range m.Nodes {
		s.RowsConfigured += memory.NumRows
		s.RowsMaterialized += nd.Mem.MaterializedRows()
		s.CowCopies += nd.Mem.CowCopies()
		s.MemResidentBytes += nd.Mem.ResidentBytes()
	}
	for _, mod := range m.Modules {
		s.DiskRowsCopied += mod.Disk.RowsCopied
		s.DiskRowsShared += mod.Disk.RowsShared
		s.DiskRowsZero += mod.Disk.RowsZero
		s.DiskLogicalBytes += mod.Disk.BytesWritten
		s.DiskResidentBytes += mod.Disk.ResidentBytes()
	}
	return s
}

// GoNode spawns fn as a process on node id's owning shard kernel. A
// process that touches a node's state must run on the kernel that owns
// it; spawning before Run starts is deterministic.
func (m *Machine) GoNode(id int, name string, fn func(*sim.Proc)) {
	m.Group.Shard(m.shardOf(id)).Go(name, fn)
}
