package fault

import (
	"reflect"
	"testing"

	"tseries/internal/sim"
)

func TestParseFullSpec(t *testing.T) {
	pl, err := Parse("seed=7,ber=1e-6,crash=2@12s,down=0.1@5s+2s,flip=1:4096.3@9s,disk=0.5@14s")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Seed != 7 || pl.BER != 1e-6 {
		t.Fatalf("seed=%d ber=%g", pl.Seed, pl.BER)
	}
	want := []Event{
		{At: 12 * sim.Second, Kind: Crash, Node: 2},
		{At: 5 * sim.Second, Kind: LinkDown, Node: 0, Dim: 1},
		{At: 7 * sim.Second, Kind: LinkUp, Node: 0, Dim: 1},
		{At: 9 * sim.Second, Kind: FlipBit, Node: 1, Addr: 4096, Bit: 3},
		{At: 14 * sim.Second, Kind: DiskCorrupt, Mod: 0, Blk: 5},
	}
	if len(pl.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(pl.Events), len(want))
	}
	for i, ev := range pl.Events {
		if ev != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, ev, want[i])
		}
	}
	if pl.Crashes() != 1 {
		t.Fatalf("crashes = %d", pl.Crashes())
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if pl, err := Parse("  "); err != nil || pl != nil {
		t.Fatalf("empty spec: %v, %v", pl, err)
	}
	for _, bad := range []string{
		"ber",               // not key=value
		"ber=2",             // rate out of range
		"ber=-0.5",          // negative rate
		"seed=x",            // not a number
		"crash=2",           // missing @time
		"crash=-1@1s",       // negative node
		"crash=2@-5s",       // negative time
		"down=0.9@",         // empty duration
		"down=a.b@1s",       // non-numeric pair
		"flip=5@1s",         // missing :ADDR.BIT
		"disk=0.x@1s",       // bad block
		"volcano=yes",       // unknown clause
		"crash=2@12s,ber=2", // error in later clause
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// corruptPin is the flip stream of Plan{Seed: 42, BER: 1e-4} over 64
// zeroed 1 KiB frames, recorded when Corrupt still returned damaged
// copies (the positions are the XOR of each copy with its input). The
// fault stream must not move when the injector's contract does.
var corruptPin = [][]int{
	nil, nil, nil, nil, {1412}, {2223}, {4804}, {7072},
	{6538}, nil, nil, {7021}, {3725, 4162}, {5111}, nil, nil,
	{2984, 5399, 5998}, {2358, 4096}, {2456, 6958}, nil, nil, {2728}, {6343}, nil,
	{2551, 6582}, nil, nil, {6834, 7146}, nil, nil, nil, nil,
	{1953, 5755}, {1333}, nil, {358, 5309}, nil, {4729, 4863}, {1147, 1934, 3022, 6984}, {1800, 4058, 6082},
	{2103}, {7003}, {3142}, nil, {2983}, {2187, 5389, 7013}, {2780}, nil,
	{6823}, nil, {3973}, {3361}, {3434}, {2522, 4639, 7890}, nil, nil,
	nil, {1940}, {5029}, {473}, nil, nil, {1323}, {64, 1585, 3377},
}

func TestCorruptDeterministic(t *testing.T) {
	frame := make([]byte, 1024)
	damage := func(seed uint64) ([]int64, [][]int) {
		pl := &Plan{Seed: seed, BER: 1e-4}
		var outs [][]int
		for i := 0; i < 64; i++ {
			outs = append(outs, pl.Corrupt("x", frame))
		}
		return []int64{pl.FramesCorrupted, pl.BitsFlipped}, outs
	}
	c1, o1 := damage(42)
	if c1[0] != 37 || c1[1] != 58 {
		t.Fatalf("seed 42: frames corrupted %d, bits flipped %d; want 37, 58", c1[0], c1[1])
	}
	for i := range o1 {
		if !reflect.DeepEqual(o1[i], corruptPin[i]) {
			t.Fatalf("seed 42 frame %d: flips %v, want %v", i, o1[i], corruptPin[i])
		}
	}
	for _, b := range frame {
		if b != 0 {
			t.Fatal("Corrupt modified the frame it was given")
		}
	}
	c2, o2 := damage(42)
	if c1[0] != c2[0] || c1[1] != c2[1] || !reflect.DeepEqual(o1, o2) {
		t.Fatalf("seed 42 rerun diverged: %v vs %v", c1, c2)
	}
	c3, _ := damage(43)
	if c1[0] == c3[0] && c1[1] == c3[1] {
		t.Fatal("different seeds produced identical damage (suspicious)")
	}
}

func TestCorruptZeroRate(t *testing.T) {
	pl := &Plan{Seed: 1, BER: 0}
	if out := pl.Corrupt("x", make([]byte, 4096)); out != nil {
		t.Fatal("BER 0 corrupted a frame")
	}
	if pl.FramesCorrupted != 0 || pl.BitsFlipped != 0 {
		t.Fatalf("counters moved: %+v", pl)
	}
	pl2 := &Plan{Seed: 1, BER: 0.5}
	if out := pl2.Corrupt("x", nil); out != nil {
		t.Fatal("empty frame corrupted")
	}
}
