package machine

import (
	"strings"
	"testing"

	"tseries/internal/fparith"
	"tseries/internal/sim"
)

func TestSpecTablePaperRows(t *testing.T) {
	// §III "Larger Configurations".
	// A four-cabinet (64-node) system: 1 GFLOPS aggregate peak, 64 MB
	// user memory, eight system disks.
	s6, err := SpecFor(6)
	if err != nil {
		t.Fatal(err)
	}
	if s6.Nodes != 64 || s6.Cabinets != 4 || s6.Disks != 8 {
		t.Fatalf("6-cube: %+v", s6)
	}
	if g := s6.PeakGFLOPS(); g < 1.0 || g > 1.1 {
		t.Fatalf("6-cube peak = %.3f GFLOPS, want ≈1", g)
	}
	if s6.RAMBytes != 64<<20 {
		t.Fatalf("6-cube RAM = %d, want 64 MB", s6.RAMBytes)
	}
	// Maximum usable: 12-cube, 4096 nodes, 256 cabinets, >65 GFLOPS,
	// 4 GB primary RAM.
	s12, err := SpecFor(12)
	if err != nil {
		t.Fatal(err)
	}
	if s12.Nodes != 4096 || s12.Cabinets != 256 {
		t.Fatalf("12-cube: %+v", s12)
	}
	if g := s12.PeakGFLOPS(); g < 65 || g > 66 {
		t.Fatalf("12-cube peak = %.2f GFLOPS, want >65", g)
	}
	if s12.RAMBytes != 4<<30 {
		t.Fatalf("12-cube RAM = %d, want 4 GB", s12.RAMBytes)
	}
	if !s12.Usable() {
		t.Fatal("12-cube must leave 2 sublinks for I/O")
	}
	// 14-cube is constructible but leaves nothing for I/O.
	s14, err := SpecFor(14)
	if err != nil {
		t.Fatal(err)
	}
	if s14.FreeSublinks != 0 || s14.Usable() {
		t.Fatalf("14-cube: %+v", s14)
	}
	if _, err := SpecFor(15); err == nil {
		t.Fatal("15-cube accepted")
	}
	// Module homogeneity: every size derives from module properties.
	if s12.PeakMFLOPS != s12.Modules*128 {
		t.Fatal("peak does not derive from 128 MFLOPS modules")
	}
	if s12.RAMBytes != int64(s12.Modules)*8<<20 {
		t.Fatal("RAM does not derive from 8 MB modules")
	}
}

func TestSpecString(t *testing.T) {
	s, _ := SpecFor(4)
	if !strings.Contains(s.String(), "16 nodes") && !strings.Contains(s.String(), "   16 nodes") {
		t.Fatalf("spec row: %s", s.String())
	}
}

func TestBuildSmallMachine(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 4) // one cabinet: 16 nodes, 2 modules
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 16 || len(m.Modules) != 2 {
		t.Fatalf("nodes=%d modules=%d", len(m.Nodes), len(m.Modules))
	}
	// The network routes corner to corner.
	var ok bool
	k.Go("tx", func(p *sim.Proc) {
		if err := m.Endpoint(0).Send(p, 15, 1, []byte("across the tesseract")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		src, payload := m.Endpoint(15).Recv(p, 1)
		ok = src == 0 && string(payload) == "across the tesseract"
	})
	k.Run(0)
	if !ok {
		t.Fatal("cross-machine message failed")
	}
}

func TestInstantiationCap(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(k, MaxSimDim+1); err == nil {
		t.Fatal("oversized instantiation accepted")
	}
}

func TestSnapshotAllParallel(t *testing.T) {
	// Snapshot time must not grow with module count: 2 modules ≈ 1
	// module ≈ 15 s (each has its own thread and disk).
	k := sim.NewKernel()
	m, err := New(k, 4)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Duration
	k.Go("snap", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.SnapshotAll(p); err != nil {
			t.Errorf("snapall: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	k.Run(0)
	if s := elapsed.Seconds(); s < 13 || s > 17 {
		t.Fatalf("machine snapshot took %.2f s, want ≈15 regardless of configuration", s)
	}
}

func TestMachineCheckpointRestore(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 3) // one module, 8 nodes
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range m.Nodes {
		nd.Mem.PokeF64(0, fparith.FromInt64(int64(i+1)))
	}
	k.Go("cycle", func(p *sim.Proc) {
		snaps, err := m.SnapshotAll(p)
		if err != nil {
			t.Errorf("snap: %v", err)
			return
		}
		for _, nd := range m.Nodes {
			nd.Mem.PokeF64(0, fparith.FromInt64(-1))
		}
		if err := m.RestoreAll(p, snaps); err != nil {
			t.Errorf("restore: %v", err)
		}
	})
	k.Run(0)
	for i, nd := range m.Nodes {
		if got := nd.Mem.PeekF64(0).Float64(); got != float64(i+1) {
			t.Fatalf("node %d = %g after restore", i, got)
		}
	}
}

func TestRingBackup(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 4) // 2 modules in a ring
	if err != nil {
		t.Fatal(err)
	}
	k.Go("backup", func(p *sim.Proc) {
		snaps, err := m.SnapshotAll(p)
		if err != nil {
			t.Errorf("snap: %v", err)
			return
		}
		if err := m.Modules[0].BackupLastSnapshot(p); err != nil {
			t.Errorf("backup: %v", err)
			return
		}
		// Give the final ring block time to land.
		p.Wait(sim.Second)
		_ = snaps
	})
	k.Run(0)
	if !m.Modules[1].HasBackupOf(0, 0, 8) {
		t.Fatal("module 1 does not hold module 0's backup")
	}
}

func TestLargerMachineSmoke(t *testing.T) {
	// A 6-cube (64 nodes, 8 modules): corner-to-corner routing works and
	// the module grouping matches the 3-subcube rule.
	k := sim.NewKernel()
	m, err := New(k, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Modules) != 8 {
		t.Fatalf("modules = %d", len(m.Modules))
	}
	for mi, mod := range m.Modules {
		for li, nd := range mod.Nodes {
			if nd.ID != mi*8+li {
				t.Fatalf("module %d slot %d holds node %d", mi, li, nd.ID)
			}
		}
	}
	var ok bool
	k.Go("tx", func(p *sim.Proc) {
		if err := m.Endpoint(0).Send(p, 63, 1, []byte("corner")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		src, payload := m.Endpoint(63).Recv(p, 1)
		ok = src == 0 && string(payload) == "corner"
	})
	k.Run(0)
	if !ok {
		t.Fatal("6-cube corner message failed")
	}
}

// TestNewHealerSpareRange: the spare count is the one recovery setting,
// so NewHealer range-checks it and reserves the top slots of each
// module; a full reservation leaves no image and is refused.
func TestNewHealerSpareRange(t *testing.T) {
	for _, spares := range []int{-1, 8} {
		m, err := New(sim.NewKernel(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewHealer(m, NewSupervisor(m), spares); err == nil {
			t.Fatalf("spares=%d accepted", spares)
		}
	}
	m, err := New(sim.NewKernel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHealer(m, NewSupervisor(m), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Images()); got != 6 {
		t.Fatalf("%d images with 2 spares in one module, want 6", got)
	}
	if h.PhysOf(6) != -1 || h.PhysOf(7) != -1 || h.PhysOf(5) != 5 {
		t.Fatalf("spare slots not reserved: physOf = %v", h.physOf)
	}
}
