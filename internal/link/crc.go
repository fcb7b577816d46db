package link

import "hash/crc32"

// The frame check is CRC-32 (IEEE), and CRC-32 is affine over GF(2):
// for frames f and e of equal length n,
//
//	crc(f ⊕ e) = crc(f) ⊕ crc(e) ⊕ crc(0ⁿ)
//
// so the receiver's verdict on a damaged frame — does crc(f ⊕ e) still
// equal crc(f)? — depends only on the error pattern e, that is, on the
// flip positions and the frame length, never on the frame's bytes. The
// linear part crc(e) ⊕ crc(0ⁿ) is the XOR of one term per damaged byte:
// the register that byte's flips leave, advanced through the zero bytes
// that follow it, which is a multiplication by x^(8k) modulo the
// generator. This is the technique of zlib's crc32_combine, in the
// same reflected bit order as hash/crc32.

// x2n[k] is x^(2^k) modulo the generator, reflected (x^0 is 1<<31).
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// multModP multiplies two polynomials modulo the generator, both
// reflected.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0 && a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// zeroShift[k][i][v] is the register nibble v at nibble position i
// multiplied by x^(8·2^k), that is, advanced through 2^k zero bytes.
// Multiplication is linear, so a register advances nibble by nibble.
var zeroShift = func() (t [32][8][16]uint32) {
	for k := range t {
		c := x2n[(k+3)&31] // x^(2^(k+3)); x's order 2³²−1 wraps the index
		for i := range t[k] {
			for v := 1; v < 16; v++ {
				if lo := v & -v; lo != v {
					t[k][i][v] = t[k][i][lo] ^ t[k][i][v^lo]
				} else {
					t[k][i][v] = multModP(c, uint32(v)<<(4*i))
				}
			}
		}
	}
	return t
}()

// advance moves a CRC register through n zero bytes.
func advance(r uint32, n int) uint32 {
	for k := 0; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			t := &zeroShift[k&31]
			r = t[0][r&15] ^ t[1][r>>4&15] ^ t[2][r>>8&15] ^ t[3][r>>12&15] ^
				t[4][r>>16&15] ^ t[5][r>>20&15] ^ t[6][r>>24&15] ^ t[7][r>>28]
		}
	}
	return r
}

// flipsDetected reports whether inverting the given bit positions of an
// n-byte frame (bit i is bit i%8 of byte i/8) changes its CRC-32, that
// is, whether the receiver's check nacks the damaged frame. A position
// listed twice cancels, as it would on the wire.
func flipsDetected(n int, bits []int) bool {
	var r uint32
	for i := 0; i < len(bits); {
		// Flips in one byte form one error byte (bits arrive ascending).
		pos, v := bits[i]/8, byte(0)
		for ; i < len(bits) && bits[i]/8 == pos; i++ {
			v ^= 1 << uint(bits[i]%8)
		}
		r ^= advance(crc32.IEEETable[v], n-1-pos)
	}
	return r != 0
}
