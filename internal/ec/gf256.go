// Package ec implements Reed–Solomon erasure coding over GF(2^8), the
// data-redundancy strategy StreamLake inherits from OceanStor Pacific.
// The paper credits erasure coding with raising disk utilization from 33%
// (3x replication) to 91%, and Figure 14(d) compares replication, EC, and
// EC over columnar data; this package provides the EC half of that
// comparison and the redundancy engine used by the PLog layer.
package ec

// GF(2^8) arithmetic with the polynomial x^8+x^4+x^3+x^2+1 (0x11D), the
// conventional Reed–Solomon field, for which 2 is a primitive element.
// Multiplication and division of single coefficients go through log/antilog
// tables built once at package init; shard-sized products go through the
// fused tables of kernel.go.

const gfPoly = 0x11D

var (
	gfExp [512]byte // antilog table, doubled to avoid a mod in mul
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. It panics on division by zero, which only a bug in
// matrix inversion could trigger.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ec: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }
