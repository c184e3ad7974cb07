//go:build amd64

package mat

import "math"

func dotAsm(a, b *float64, n int) float64
func axpyAsm(alpha float64, x, y *float64, n int)
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (lo, hi uint32)

// haveFMA reports whether the AVX2+FMA kernels are usable: the CPU must
// advertise FMA and AVX2, and the OS must save YMM state across context
// switches (OSXSAVE + XCR0 bits 1 and 2).
var haveFMA = func() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	if c&fmaBit == 0 || c&osxsaveBit == 0 || c&avxBit == 0 {
		return false
	}
	if lo, _ := xgetbvAsm(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<5) != 0 // AVX2
}()

// asmDotMin is the slice length below which the call overhead of the
// assembly kernel exceeds its throughput advantage.
const asmDotMin = 16

// adot is the dispatching inner product used by the dense kernels. The
// evaluation order is a fixed function of the slice length (and, across
// machines, of the instruction set), never of the worker count — parallel
// and serial runs agree bitwise either way.
func adot(a, b []float64) float64 {
	if haveFMA && len(a) >= asmDotMin {
		return dotAsm(&a[0], &b[0], len(a))
	}
	return dot4(a, b)
}

// adotStrided is adot(a, v) for the vector v[j] = y[j·stride], replayed in
// place: dot4's order below asmDotMin, dotAsm's above it, so every value
// has adot's bits. It is the scalar form of the strided lane kernels.
func adotStrided(a, y []float64, stride int) float64 {
	if haveFMA && len(a) >= asmDotMin {
		return dotFMAStrided(a, y, stride)
	}
	return dot4Strided(a, y, stride)
}

// dotFMAStrided replays dotAsm: sixteen fused residue classes over the
// leading multiple of 16, folded as (c_l + c_l+4) + (c_l+8 + c_l+12) for
// l = 0..3, then (t0+t2)+(t1+t3), then the tail fused in ascending order.
func dotFMAStrided(a, y []float64, stride int) float64 {
	n := len(a)
	q := n &^ 15
	var c [16]float64
	for i := 0; i < q; i += 16 {
		for r := range c {
			c[r] = math.FMA(a[i+r], y[(i+r)*stride], c[r])
		}
	}
	var t [4]float64
	for l := range t {
		t[l] = (c[l] + c[l+4]) + (c[l+8] + c[l+12])
	}
	s := (t[0] + t[2]) + (t[1] + t[3])
	for i := q; i < n; i++ {
		s = math.FMA(a[i], y[i*stride], s)
	}
	return s
}

// axpy computes y[i] += alpha*x[i]. On the FMA path every element —
// including the tail, via math.FMA — uses fused rounding, so the result
// does not depend on where the vector kernel stops.
func axpy(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	if haveFMA && n >= 16 {
		q := n &^ 15
		axpyAsm(alpha, &x[0], &y[0], q)
		for i := q; i < n; i++ {
			y[i] = math.FMA(alpha, x[i], y[i])
		}
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
