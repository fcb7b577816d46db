package link

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
)

// FuzzFlipsDetected checks the position-only verdict against the CRC
// itself: for a random frame and a set of distinct bit positions,
// flipsDetected must say exactly whether inverting those bits changes
// crc32.ChecksumIEEE. The seeds run as an ordinary test; they include
// the generator pattern at several offsets, the one flip set the CRC
// cannot see.
func FuzzFlipsDetected(f *testing.F) {
	for _, n := range []int{1, 3, 1024, 64<<10 + 4} {
		f.Add(uint64(n), uint32(n), []byte{0, 0})
		f.Add(uint64(n)*7+1, uint32(n), []byte{5, 0, 7, 0, 200, 3, 64, 1})
	}
	for _, base := range []int{0, 3, 17, 100} {
		f.Add(uint64(base), uint32(64), generatorAt(base))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size uint32, spec []byte) {
		n := 1 + int(size%(64<<10+8))
		frame := make([]byte, n)
		rand.New(rand.NewSource(int64(seed))).Read(frame)
		bits := flipSet(spec, 8*n)
		if len(bits) == 0 {
			return
		}
		before := crc32.ChecksumIEEE(frame)
		flipBits(frame, bits)
		want := crc32.ChecksumIEEE(frame) != before
		if got := flipsDetected(n, bits); got != want {
			t.Fatalf("n=%d bits=%v: flipsDetected=%v, CRC says %v", n, bits, got, want)
		}
	})
}

// maxFlips bounds a fuzzed flip set; the generator pattern needs
// fifteen positions.
const maxFlips = 16

// flipSet decodes ascending, distinct bit positions below limit from
// spec, read as little-endian uint16 gaps, each position the previous
// one plus its gap (modulo limit).
func flipSet(spec []byte, limit int) []int {
	seen := map[int]bool{}
	var bits []int
	pos := 0
	for i := 0; i+2 <= len(spec) && len(bits) < maxFlips; i += 2 {
		pos = (pos + int(binary.LittleEndian.Uint16(spec[i:]))) % limit
		if !seen[pos] {
			seen[pos] = true
			bits = append(bits, pos)
		}
	}
	sort.Ints(bits)
	return bits
}

// generatorAt spells the CRC-32 generator pattern at base in flipSet's
// encoding.
func generatorAt(base int) []byte {
	var spec []byte
	prev := 0
	for _, b := range crcGenerator {
		spec = binary.LittleEndian.AppendUint16(spec, uint16(base+b-prev))
		prev = base + b
	}
	return spec
}

// TestGeneratorSeedsAreUndetected keeps the fuzz seeds honest: the
// generator pattern must decode to the undetected verdict, and one bit
// fewer to a detected one.
func TestGeneratorSeedsAreUndetected(t *testing.T) {
	for _, base := range []int{0, 3, 17, 100} {
		bits := flipSet(generatorAt(base), 8*64)
		if len(bits) != len(crcGenerator) || bits[0] != base {
			t.Fatalf("base %d: decoded %v", base, bits)
		}
		if flipsDetected(64, bits) {
			t.Fatalf("base %d: generator pattern reported detected", base)
		}
		if !flipsDetected(64, bits[1:]) {
			t.Fatalf("base %d: generator pattern less one bit reported undetected", base)
		}
	}
}
