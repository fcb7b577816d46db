package module

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/memory"
	"tseries/internal/sim"
)

// External I/O: "the system board can support 0.5 MB/s to an external
// connection" (§III). The front end loads problems into node memories
// and retrieves results through the system board and its thread — the
// same path the snapshots use, with the same link-rate ceiling.

const (
	kindIOWrite = 4 // [kind][node][off u32] + data : write into node memory
	kindIORead  = 5 // [kind][node][off u32][len u32] : request a read
	kindIOData  = 6 // [kind][node] + data : read reply heading to the board

	// ioChunk is smaller than SnapshotChunk so external transfers
	// pipeline across the thread's hops with little fill latency.
	ioChunk = 16 * 1024
)

// LoadNodeMemory writes data into node nodeIdx's memory at byte offset
// off, streamed over the system thread in chunks. It blocks for the full
// transfer (bounded by the ≈0.577 MB/s thread links).
func (m *Module) LoadNodeMemory(p *sim.Proc, nodeIdx, off int, data []byte) error {
	if nodeIdx < 0 || nodeIdx >= len(m.Nodes) {
		return fmt.Errorf("module %d: no node %d", m.Index, nodeIdx)
	}
	if off < 0 || off+len(data) > memory.Bytes {
		return fmt.Errorf("module %d: load outside node memory", m.Index)
	}
	chunks := 0
	for lo := 0; lo < len(data); lo += ioChunk {
		hi := lo + ioChunk
		if hi > len(data) {
			hi = len(data)
		}
		msg := make([]byte, 6+hi-lo)
		msg[0] = kindIOWrite
		msg[1] = byte(nodeIdx)
		binary.LittleEndian.PutUint32(msg[2:6], uint32(off+lo))
		copy(msg[6:], data[lo:hi])
		if err := m.Sys.Link.Sublink(sysThreadOut).SendOwned(p, msg); err != nil {
			return err
		}
		chunks++
	}
	for i := 0; i < chunks; i++ {
		m.applied.Recv(p)
	}
	return nil
}

// DumpNodeMemory reads n bytes from node nodeIdx's memory at byte offset
// off, via a read request down the thread and data replies back up.
func (m *Module) DumpNodeMemory(p *sim.Proc, nodeIdx, off, n int) ([]byte, error) {
	if nodeIdx < 0 || nodeIdx >= len(m.Nodes) {
		return nil, fmt.Errorf("module %d: no node %d", m.Index, nodeIdx)
	}
	if off < 0 || n < 0 || off+n > memory.Bytes {
		return nil, fmt.Errorf("module %d: dump outside node memory", m.Index)
	}
	var out []byte
	for lo := 0; lo < n; lo += ioChunk {
		want := ioChunk
		if lo+want > n {
			want = n - lo
		}
		req := make([]byte, 10)
		req[0] = kindIORead
		req[1] = byte(nodeIdx)
		binary.LittleEndian.PutUint32(req[2:6], uint32(off+lo))
		binary.LittleEndian.PutUint32(req[6:10], uint32(want))
		if err := m.Sys.Link.Sublink(sysThreadOut).SendOwned(p, req); err != nil {
			return nil, err
		}
		reply := m.ioChan.Recv(p).([]byte)
		if len(reply) < 2 || int(reply[1]) != nodeIdx {
			return nil, fmt.Errorf("module %d: misrouted I/O reply", m.Index)
		}
		out = append(out, reply[2:]...)
	}
	return out, nil
}
