package link

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"testing"

	"tseries/internal/fault"
	"tseries/internal/sim"
)

// corruptFirst damages the first n attempts on a sublink, then lets
// frames through clean.
type corruptFirst struct {
	n    int
	seen int
}

func (c *corruptFirst) Corrupt(sublink string, data []byte) []int {
	c.seen++
	if c.seen > c.n {
		return nil
	}
	return []int{7}
}

func TestConnectSelfAndDouble(t *testing.T) {
	k := sim.NewKernel()
	a := NewLink(k, "a/link0")
	b := NewLink(k, "b/link0")
	if err := Connect(a.Sublink(0), a.Sublink(0)); err == nil {
		t.Fatal("self-connect accepted")
	}
	if err := Connect(a.Sublink(0), b.Sublink(0)); err != nil {
		t.Fatal(err)
	}
	if err := Connect(a.Sublink(0), b.Sublink(1)); err == nil {
		t.Fatal("double connect of a accepted")
	}
	if err := Connect(a.Sublink(1), b.Sublink(0)); err == nil {
		t.Fatal("double connect of b accepted")
	}
}

func TestPairSelfAndDouble(t *testing.T) {
	g := sim.NewShardGroup(2)
	defer g.Close()
	a := NewLink(g.Shard(0), "a/link0")
	b := NewLink(g.Shard(1), "b/link0")
	if err := Pair(g, a.Sublink(0), a.Sublink(0), 0, 0); err == nil {
		t.Fatal("self-pair accepted")
	}
	if err := Pair(g, a.Sublink(0), b.Sublink(0), 0, 1); err != nil {
		t.Fatal(err)
	}
	if !a.Sublink(0).Connected() || !b.Sublink(0).Up() {
		t.Fatal("cross-shard pair not connected")
	}
	if err := Pair(g, a.Sublink(0), a.Sublink(1), 0, 0); err == nil {
		t.Fatal("local pair with a staged end accepted")
	}
	if err := Pair(g, a.Sublink(2), b.Sublink(0), 0, 1); err == nil {
		t.Fatal("double staged pair accepted")
	}
}

func TestTryRecvOnDisconnected(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "lone")
	s := l.Sublink(0)
	if s.Ready() {
		t.Fatal("disconnected sublink reports ready")
	}
	if _, ok := s.TryRecv(); ok {
		t.Fatal("TryRecv on a disconnected sublink returned a message")
	}
	if s.Up() {
		t.Fatal("disconnected sublink claims to be up")
	}
}

func TestRetransmitCorrectsCorruption(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	a.SetInjector(&corruptFirst{n: 2})
	payload := []byte("the frame must arrive intact")
	var got []byte
	var sendErr error
	k.Go("tx", func(p *sim.Proc) { sendErr = a.Sublink(0).Send(p, payload) })
	k.Go("rx", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	k.Run(0)
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
	if a.Corrupted != 2 || a.Retransmits != 2 || a.Undetected != 0 {
		t.Fatalf("counters: corrupted=%d retransmits=%d undetected=%d",
			a.Corrupted, a.Retransmits, a.Undetected)
	}
	if a.Transfers != 3 {
		t.Fatalf("transfers = %d, want 3 (two nacked + one clean)", a.Transfers)
	}
}

func TestPersistentNackNeverDropsFrame(t *testing.T) {
	// Nacks prove the peer is alive: even a long corruption burst must
	// not escalate to a DownError.
	k := sim.NewKernel()
	a, b := pair(k)
	a.SetInjector(&corruptFirst{n: 3 * MaxSendAttempts})
	var sendErr error
	k.Go("tx", func(p *sim.Proc) { sendErr = a.Sublink(0).Send(p, []byte{1, 2, 3}) })
	k.Go("rx", func(p *sim.Proc) { b.Sublink(0).Recv(p) })
	k.Run(0)
	if sendErr != nil {
		t.Fatalf("burst of nacks escalated: %v", sendErr)
	}
	if a.Drops != 0 || a.Timeouts != 0 {
		t.Fatalf("drops=%d timeouts=%d on a live wire", a.Drops, a.Timeouts)
	}
}

func TestOutageTimesOutThenDownError(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	b.Sublink(0).SetDown(true)
	if a.Sublink(0).Up() {
		t.Fatal("channel with a severed far end claims to be up")
	}
	var sendErr error
	var elapsed sim.Time
	k.Go("tx", func(p *sim.Proc) {
		sendErr = a.Sublink(0).Send(p, []byte{1})
		elapsed = p.Now()
	})
	k.Run(0)
	if !IsDown(sendErr) {
		t.Fatalf("got %v, want DownError", sendErr)
	}
	de := sendErr.(*DownError)
	if de.Attempts != MaxSendAttempts {
		t.Fatalf("gave up after %d attempts, want %d", de.Attempts, MaxSendAttempts)
	}
	if a.Timeouts != MaxSendAttempts || a.Drops != 1 {
		t.Fatalf("timeouts=%d drops=%d", a.Timeouts, a.Drops)
	}
	// Cost: MaxSendAttempts timed-out attempts plus the backoffs between them.
	want := sim.Duration(MaxSendAttempts) * (DMAStartup + AckTimeout)
	for n := 1; n < MaxSendAttempts; n++ {
		want += RetryBackoff(n)
	}
	if sim.Duration(elapsed) != want {
		t.Fatalf("outage detection took %v, want %v", sim.Duration(elapsed), want)
	}
	// Restore the far end: traffic flows again.
	b.Sublink(0).SetDown(false)
	var got []byte
	k.Go("tx2", func(p *sim.Proc) {
		if err := a.Sublink(0).Send(p, []byte{7}); err != nil {
			t.Errorf("send after repair: %v", err)
		}
	})
	k.Go("rx2", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	k.Run(0)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("post-repair delivery: %v", got)
	}
}

func TestLinkSetDownSeversAllSublinks(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(k)
	a.SetDown(true)
	for i := 0; i < SublinksPerLink; i++ {
		if !a.Sublink(i).Down() {
			t.Fatalf("sublink %d survived link SetDown", i)
		}
	}
	a.SetDown(false)
	if a.Sublink(0).Down() {
		t.Fatal("sublink still down after restore")
	}
}

func TestFlushDiscardsQueued(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := a.Sublink(0).Send(p, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	k.Run(0)
	if n := b.Sublink(0).Flush(); n != 5 {
		t.Fatalf("flushed %d, want 5", n)
	}
	if b.Sublink(0).Ready() {
		t.Fatal("inbox still ready after flush")
	}
}

// crcGenerator is CRC-32 IEEE's generator polynomial written as bit
// offsets in wire order. Inverting these bits, shifted by any base,
// adds a multiple of the generator to the frame, which leaves
// crc32.ChecksumIEEE unchanged: the one corruption the frame checksum
// can never see.
var crcGenerator = []int{0, 6, 9, 10, 16, 20, 21, 22, 24, 25, 27, 28, 30, 31, 32}

// undetectable damages the first attempt on a link with the generator
// pattern at base, then lets frames through clean.
type undetectable struct {
	base int
	seen int
}

func (u *undetectable) Corrupt(sublink string, data []byte) []int {
	u.seen++
	if u.seen > 1 {
		return nil
	}
	flips := make([]int, len(crcGenerator))
	for i, b := range crcGenerator {
		flips[i] = u.base + b
	}
	return flips
}

// TestUndetectedCorruptionReachesReceiver drives the path no checksum
// reject covers: damage the CRC misses is delivered as is, counted once
// as Undetected, and never retransmitted. It runs on a local pair and
// on a cross-shard staged pair, which share the transmit step.
func TestUndetectedCorruptionReachesReceiver(t *testing.T) {
	for _, staged := range []bool{false, true} {
		for _, base := range []int{0, 3, 17, 100} {
			t.Run(fmt.Sprintf("staged=%v/base=%d", staged, base), func(t *testing.T) {
				testUndetected(t, staged, base)
			})
		}
	}
}

func testUndetected(t *testing.T, staged bool, base int) {
	g := sim.NewShardGroup(2)
	defer g.Close()
	sb := 0
	if staged {
		sb = 1
	}
	ka, kb := g.Shard(0), g.Shard(sb)
	a, b := NewLink(ka, "a/link0"), NewLink(kb, "b/link0")
	if err := Pair(g, a.Sublink(0), b.Sublink(0), 0, sb); err != nil {
		t.Fatal(err)
	}
	inj := &undetectable{base: base}
	a.SetInjector(inj)
	first, second := make([]byte, 32), make([]byte, 32)
	for i := range first {
		first[i], second[i] = byte(i*37+1), byte(i*11+5)
	}
	want := append([]byte(nil), first...)
	for _, bit := range crcGenerator {
		want[(base+bit)/8] ^= 1 << uint((base+bit)%8)
	}
	if crc32.ChecksumIEEE(want) != crc32.ChecksumIEEE(first) {
		t.Fatalf("base %d: the generator pattern changed the CRC", base)
	}
	var got [][]byte
	ka.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).Send(p, first); err != nil {
			t.Errorf("first send: %v", err)
		}
		if a.Transfers != 1 {
			t.Errorf("first send took %d transfers, want 1", a.Transfers)
		}
		if err := a.Sublink(0).Send(p, second); err != nil {
			t.Errorf("second send: %v", err)
		}
	})
	kb.Go("rx", func(p *sim.Proc) {
		got = append(got, b.Sublink(0).Recv(p), b.Sublink(0).Recv(p))
	})
	g.Run(0)
	if a.Corrupted != 1 || a.Undetected != 1 || a.Retransmits != 0 {
		t.Fatalf("corrupted=%d undetected=%d retransmits=%d, want 1, 1, 0",
			a.Corrupted, a.Undetected, a.Retransmits)
	}
	if len(got) != 2 || !bytes.Equal(got[0], want) {
		t.Fatalf("first frame arrived as %x, want the sent frame with exactly the generator bits inverted (%x)", got, want)
	}
	if !bytes.Equal(got[1], second) {
		t.Fatalf("second frame arrived as %x, want it intact", got[1])
	}
}

// TestFaultPlanStreamThroughLink pins what a seeded fault plan does to
// a long frame stream through a link pair, recorded when the plan still
// returned damaged copies: which attempts it corrupts, how many
// retransmissions that costs, and the bytes delivered.
func TestFaultPlanStreamThroughLink(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a, b := pair(k)
	a.SetInjector(&fault.Plan{Seed: 7, BER: 1e-6})
	const frames, size = 200, 64<<10 + 4
	h := sha256.New()
	k.Go("tx", func(p *sim.Proc) {
		buf := make([]byte, size)
		for f := 0; f < frames; f++ {
			for i := range buf {
				buf[i] = byte(i*31 + f)
			}
			if err := a.Sublink(0).Send(p, buf); err != nil {
				t.Error(err)
			}
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		for f := 0; f < frames; f++ {
			h.Write(b.Sublink(0).Recv(p))
		}
	})
	k.Run(0)
	if a.Corrupted != 112 || a.Retransmits != 112 || a.Undetected != 0 || a.BytesSent != 20448480 {
		t.Fatalf("corrupted=%d retransmits=%d undetected=%d bytes=%d, want 112, 112, 0, 20448480",
			a.Corrupted, a.Retransmits, a.Undetected, a.BytesSent)
	}
	const digest = "5fc3b2f39e7efe1e7ae0d5c83daac8282a67b04193c48f118c84280a33683375"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != digest {
		t.Fatalf("delivered stream digest %s, want %s", got, digest)
	}
}
