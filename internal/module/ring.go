package module

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/link"
	"tseries/internal/sim"
)

// The system ring: system boards are directly connected by communication
// links into a ring that is independent of the binary n-cube joining the
// processor nodes. Its jobs are management traffic and backing up
// snapshots to other modules' disks.

const kindBackup = 3

// ConnectRing wires the module system boards into a unidirectional ring
// (module i's ring-out to module i+1's ring-in) and starts a ring
// service daemon on each board, on that module's own kernel, that
// stores arriving backup blocks on the local disk. The modules may be
// spread over the shards of g (shardOf maps a module index to its
// owning shard): ring segments whose endpoints live on different shard
// kernels become staged link pairs over XChan edges (one per direction)
// with the link-layer lookahead.
func ConnectRing(g *sim.ShardGroup, mods []*Module, shardOf func(idx int) int) error {
	if len(mods) < 2 {
		return fmt.Errorf("module: a ring needs at least two modules")
	}
	for i := range mods {
		next := mods[(i+1)%len(mods)]
		out := mods[i].Sys.Link.Sublink(sysRingOut)
		in := next.Sys.Link.Sublink(sysRingIn)
		sa, sb := shardOf(i), shardOf(next.Index)
		if sa == sb {
			if err := link.Connect(out, in); err != nil {
				return err
			}
			continue
		}
		ab := g.ConnectInto(sa, sb, fmt.Sprintf("xring/mod%d-mod%d", i, next.Index), link.Lookahead, in.Inbox())
		ba := g.ConnectInto(sb, sa, fmt.Sprintf("xring/mod%d-mod%d", next.Index, i), link.Lookahead, out.Inbox())
		if err := link.ConnectStaged(out, in, ab, ba); err != nil {
			return err
		}
	}
	for _, m := range mods {
		startRingDaemon(m)
	}
	return nil
}

// startRingDaemon runs one module's ring service loop on its kernel:
// store arriving backup blocks, consume addressed health summaries,
// relay the rest.
func startRingDaemon(mod *Module) {
	mod.k.GoDaemon(fmt.Sprintf("mod%d/sys/ring", mod.Index), func(p *sim.Proc) {
		for {
			raw := mod.Sys.Link.Sublink(sysRingIn).Recv(p)
			if len(raw) < 3 {
				continue
			}
			if raw[0] == kindHealth {
				// Health summaries are addressed: consume ours,
				// relay the rest around the ring until their hop
				// budget dies.
				if len(raw) < 4 {
					continue
				}
				if int(raw[1]) == mod.Index {
					mod.acceptHealth(raw)
					continue
				}
				if raw[3]++; raw[3] < healthHopBudget {
					_ = mod.Sys.Link.Sublink(sysRingOut).Send(p, raw)
				}
				continue
			}
			if raw[0] != kindBackup {
				continue
			}
			keyLen := int(binary.LittleEndian.Uint16(raw[1:3]))
			if len(raw) < 3+keyLen {
				continue
			}
			key := string(raw[3 : 3+keyLen])
			data := raw[3+keyLen:]
			mod.Disk.Write(p, key, data)
		}
	})
}

// BackupLastSnapshot streams this module's most recent snapshot over the
// system ring to the next module's disk, prefixed "backup/". It blocks
// for the ring transfer time (the ring link is the bottleneck, just as
// for local snapshots).
func (m *Module) BackupLastSnapshot(p *sim.Proc) error {
	snap := m.LastSnapshot
	if snap == nil {
		return fmt.Errorf("module %d: nothing to back up", m.Index)
	}
	for _, as := range m.activeSlots() {
		for seq := 0; seq < chunksPerNode; seq++ {
			key := snapKey(snap.ID, as.img, seq)
			data, ok := m.Disk.Peek(key)
			if !ok {
				return fmt.Errorf("module %d: snapshot block %s missing", m.Index, key)
			}
			// Timed disk read feeding the ring.
			m.Disk.busy.Use(p, sim.Duration(len(data))*m.Disk.ByteTime)
			bkey := fmt.Sprintf("backup/mod%d/%s", m.Index, key)
			msg := make([]byte, 3+len(bkey)+len(data))
			msg[0] = kindBackup
			binary.LittleEndian.PutUint16(msg[1:3], uint16(len(bkey)))
			copy(msg[3:], bkey)
			copy(msg[3+len(bkey):], data)
			if err := m.Sys.Link.Sublink(sysRingOut).Send(p, msg); err != nil {
				return err
			}
		}
	}
	return nil
}

// HasBackupOf reports whether this module's disk holds a full backup of
// the given module's snapshot.
func (m *Module) HasBackupOf(srcModule, snapID, nNodes int) bool {
	for idx := 0; idx < nNodes; idx++ {
		for seq := 0; seq < chunksPerNode; seq++ {
			key := fmt.Sprintf("backup/mod%d/%s", srcModule, snapKey(snapID, idx, seq))
			if !m.Disk.Has(key) {
				return false
			}
		}
	}
	return true
}
