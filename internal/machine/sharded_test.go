package machine

import (
	"context"
	"fmt"
	"testing"

	"tseries/internal/sim"
)

func TestShardedMachineBuilds(t *testing.T) {
	m, err := NewAuto(context.Background(), 4, 0) // one cabinet: 16 nodes, 2 modules
	if err != nil {
		t.Fatal(err)
	}
	if m.Group.Shards() != 2 || len(m.Modules) != 2 {
		t.Fatalf("shards=%d modules=%d, want 2/2", m.Group.Shards(), len(m.Modules))
	}
	// Corner-to-corner routing crosses the shard boundary (node 15 is
	// module 1's, node 0 module 0's).
	var ok bool
	m.Group.Shard(0).Go("tx", func(p *sim.Proc) {
		if err := m.Endpoint(0).Send(p, 15, 1, []byte("across the tesseract")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	m.Group.Shard(1).Go("rx", func(p *sim.Proc) {
		src, payload := m.Endpoint(15).Recv(p, 1)
		ok = src == 0 && string(payload) == "across the tesseract"
	})
	m.Run(0)
	if !ok {
		t.Fatal("cross-shard message failed")
	}
	if st := m.SimStats(); st.CrossShard == 0 {
		t.Error("expected staged cross-shard traffic")
	}
}

func TestShardedSnapshotAllFromAnyShard(t *testing.T) {
	// SnapshotAll still takes ≈15 s wall (modules snapshot in parallel,
	// each on its own shard) and may be issued from a non-control shard.
	m, err := NewAuto(context.Background(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Duration
	m.Group.Shard(1).Go("snap", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.SnapshotAll(p); err != nil {
			t.Errorf("snapall: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	m.Run(0)
	if s := elapsed.Seconds(); s < 13 || s > 17 {
		t.Fatalf("machine snapshot took %.2f s, want ≈15 regardless of partition", s)
	}
}

func TestNewAutoPicksGeometry(t *testing.T) {
	serial, err := NewAuto(context.Background(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := serial.Group.Shards(); n != 1 {
		t.Fatalf("single-module dim-3 machine built %d shards, want 1 regardless of workers", n)
	}
	sharded, err := NewAuto(context.Background(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := sharded.Group.Shards(); n != 4 {
		t.Fatalf("dim-5 machine: %d shards, want 4 (one per module)", n)
	}
}

// TestNewIsOneShard pins New as the one-shard plan: every module on the
// caller's kernel, nothing staged, and the kernel still drivable
// directly with no window accounting in the machine's stats.
func TestNewIsOneShard(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Group.Shards() != 1 || m.Group.Shard(0) != k || m.K != k || len(m.Modules) != 2 {
		t.Fatalf("shards=%d modules=%d, want the caller's kernel as the only shard of 2 modules",
			m.Group.Shards(), len(m.Modules))
	}
	var ok bool
	m.GoNode(15, "rx", func(p *sim.Proc) {
		src, payload := m.Endpoint(15).Recv(p, 1)
		ok = src == 0 && string(payload) == "one kernel"
	})
	m.GoNode(0, "tx", func(p *sim.Proc) {
		if err := m.Endpoint(0).Send(p, 15, 1, []byte("one kernel")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Run(0)
	if !ok {
		t.Fatal("message across modules failed")
	}
	if st := m.SimStats(); st.Windows != 0 || st.CrossShard != 0 || st.Shards != nil {
		t.Fatalf("one-shard stats carry window accounting: %+v", st)
	}
}

// TestShardedMachineWorkerInvariant runs the same partitioned exchange
// at worker counts 1, 2, and 4 and demands identical end state: the
// partition is fixed by the geometry, workers only execute it.
func TestShardedMachineWorkerInvariant(t *testing.T) {
	run := func(workers int) string {
		m, err := NewAuto(context.Background(), 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < len(m.Nodes); id++ {
			nodeID := id
			m.Group.Shard(m.Plan.ShardOfNode(id)).Go(fmt.Sprintf("x%d", id), func(p *sim.Proc) {
				peer := nodeID ^ 15 // opposite corner: always cross-module
				ep := m.Endpoint(nodeID)
				if err := ep.Send(p, peer, 2, []byte{byte(nodeID)}); err != nil {
					t.Errorf("node %d send: %v", nodeID, err)
					return
				}
				src, payload := ep.Recv(p, 2)
				if src != peer || len(payload) != 1 || payload[0] != byte(peer) {
					t.Errorf("node %d: got %d bytes from %d", nodeID, len(payload), src)
				}
			})
		}
		end := m.Run(0)
		return fmt.Sprintf("end=%v stats=%+v", end, m.SimStats())
	}
	want := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != want {
			t.Errorf("workers=%d diverged:\n%s\nvs\n%s", w, got, want)
		}
	}
}
