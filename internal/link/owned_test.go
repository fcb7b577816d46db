package link

import (
	"bytes"
	"fmt"
	"testing"

	"tseries/internal/sim"
)

// recordingInjector returns flips[i] on attempt i (nil past the end)
// and keeps a copy of the frame each attempt saw.
type recordingInjector struct {
	flips [][]int
	seen  [][]byte
}

func (r *recordingInjector) Corrupt(sublink string, frame []byte) []int {
	i := len(r.seen)
	r.seen = append(r.seen, append([]byte(nil), frame...))
	if i < len(r.flips) {
		return r.flips[i]
	}
	return nil
}

// sendOwnedOnce hands one frame over a local (staged=false) or
// cross-shard pair carrying inj, and returns what the receiver got.
func sendOwnedOnce(t *testing.T, staged bool, inj *recordingInjector, frame []byte) (*Link, []byte) {
	t.Helper()
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
	a.SetInjector(inj)
	var got []byte
	ka.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).SendOwned(p, frame); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	kb.Go("rx", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	g.Run(0)
	return a, got
}

func testFrame() []byte {
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i*29 + 3)
	}
	return frame
}

// TestSendOwnedHandsOver pins the handover contract on a local and on a
// cross-shard pair: the receiver gets the very array handed over, a
// nacked attempt never touches its bytes, and damage the checksum
// misses arrives in that same array.
func TestSendOwnedHandsOver(t *testing.T) {
	for _, staged := range []bool{false, true} {
		t.Run(fmt.Sprintf("staged=%v/clean", staged), func(t *testing.T) {
			frame := testFrame()
			want := append([]byte(nil), frame...)
			_, got := sendOwnedOnce(t, staged, &recordingInjector{}, frame)
			if len(got) == 0 || &got[0] != &frame[0] {
				t.Fatal("receiver did not get the frame handed over")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("clean frame arrived as %x, want %x", got, want)
			}
		})
		t.Run(fmt.Sprintf("staged=%v/nack", staged), func(t *testing.T) {
			frame := testFrame()
			want := append([]byte(nil), frame...)
			inj := &recordingInjector{flips: [][]int{{0}, {5, 300}}}
			a, got := sendOwnedOnce(t, staged, inj, frame)
			if a.Corrupted != 2 || a.Retransmits != 2 || a.Undetected != 0 {
				t.Fatalf("corrupted=%d retransmits=%d undetected=%d, want 2, 2, 0",
					a.Corrupted, a.Retransmits, a.Undetected)
			}
			if len(inj.seen) != 3 {
				t.Fatalf("%d attempts, want 3", len(inj.seen))
			}
			for i, seen := range inj.seen {
				if !bytes.Equal(seen, want) {
					t.Fatalf("attempt %d saw %x, want the frame as handed over", i, seen)
				}
			}
			if &got[0] != &frame[0] || !bytes.Equal(got, want) {
				t.Fatalf("retransmitted frame arrived as %x, want the handed-over array intact", got)
			}
		})
		t.Run(fmt.Sprintf("staged=%v/undetected", staged), func(t *testing.T) {
			frame := testFrame()
			want := append([]byte(nil), frame...)
			flips := make([]int, len(crcGenerator))
			for i, b := range crcGenerator {
				flips[i] = 17 + b
			}
			flipBits(want, flips)
			a, got := sendOwnedOnce(t, staged, &recordingInjector{flips: [][]int{flips}}, frame)
			if a.Corrupted != 1 || a.Undetected != 1 || a.Retransmits != 0 {
				t.Fatalf("corrupted=%d undetected=%d retransmits=%d, want 1, 1, 0",
					a.Corrupted, a.Undetected, a.Retransmits)
			}
			if &got[0] != &frame[0] || !bytes.Equal(got, want) {
				t.Fatalf("frame arrived as %x, want the handed-over array with the generator bits inverted (%x)", got, want)
			}
		})
	}
}

// TestSendOwnedDownReturnsFrame: a send abandoned with a DownError hands
// the frame back unchanged, so a router may offer it to another channel.
func TestSendOwnedDownReturnsFrame(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a, _ := pair(k)
	a.Sublink(0).SetDown(true)
	frame := testFrame()
	want := append([]byte(nil), frame...)
	k.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).SendOwned(p, frame); !IsDown(err) {
			t.Errorf("send on a severed sublink: %v, want a DownError", err)
		}
	})
	k.Run(0)
	if !bytes.Equal(frame, want) {
		t.Fatalf("abandoned frame came back as %x, want %x", frame, want)
	}
}
