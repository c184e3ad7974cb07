package mat

import "math"

// PowLanes sets dst[i] = math.Pow(base, y[i]) with the bits math.Pow
// returns, under the lane-replay rule (DESIGN §5a). For a finite base
// above 0 other than 1 it replays Pow's own steps: Log(base) and
// Frexp(base) once per call; for each exponent, Modf of |y|, the
// fractional part's exponential through the vector exponential four values
// at a time (ExpLanes's replay of math.Exp), the integer part by Pow's
// repeated squaring, the reciprocal for a negative exponent, and the final
// scale by 2^ae written into the exponent bits, which is Ldexp's result
// whenever it is a normal number. Exponents Pow answers before those steps
// (±0, 1, ±0.5, NaN, |y| ≥ 2⁶³) and any result outside the normal range
// go to math.Pow itself, as does every element for any other base. dst
// may be y itself: each group of four is read before it is written. It
// allocates nothing.
func PowLanes(dst, y []float64, base float64) {
	dst = dst[:len(y)]
	if !(base > 0) || base == 1 || math.IsInf(base, 1) {
		for i, v := range y {
			dst[i] = math.Pow(base, v)
		}
		return
	}
	lx := math.Log(base)
	x1, xe := math.Frexp(base)
	var v, yi, t [4]float64
	for i := 0; i < len(y); i += 4 {
		n := copy(v[:], y[i:])
		// special marks the lanes math.Pow answers; frac those whose
		// exponent has a fractional part, so that t holds yf·Log(base).
		var special, frac uint8
		for c := 0; c < 4; c++ {
			t[c] = 0
			if c >= n {
				continue
			}
			a := v[c]
			if a == 0 || a == 1 || a == 0.5 || a == -0.5 || !(math.Abs(a) < 1<<63) {
				special |= 1 << c
				continue
			}
			ip, yf := math.Modf(math.Abs(a))
			if yf != 0 {
				if yf > 0.5 {
					yf--
					ip++
				}
				t[c] = yf * lx
				frac |= 1 << c
			}
			yi[c] = ip
		}
		if expGroups(t[:], t[:]) == 0 {
			for c := 0; c < n; c++ {
				if frac&(1<<c) != 0 {
					t[c] = math.Exp(t[c])
				}
			}
		}
		for c := 0; c < n; c++ {
			if special&(1<<c) != 0 {
				dst[i+c] = math.Pow(base, v[c])
				continue
			}
			a1 := 1.0
			if frac&(1<<c) != 0 {
				a1 = t[c]
			}
			if r, ok := powScale(a1, yi[c], x1, xe, v[c] < 0); ok {
				dst[i+c] = r
			} else {
				dst[i+c] = math.Pow(base, v[c])
			}
		}
	}
}

// powScale finishes math.Pow(x, y) from a1 = x^yf (1 when y has no
// fractional part), yi = the integer part of |y| after Pow's rounding of
// yf into (−0.5, 0.5], and x = x1·2^xe from Frexp: Pow's loop of repeated
// squarings, its reciprocal for y < 0, and Ldexp(a1, ae). It reports
// false when Ldexp's result would not be a normal number (or a1 is not
// one), where the caller asks math.Pow instead.
func powScale(a1, yi, x1 float64, xe int, neg bool) (float64, bool) {
	ae := 0
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if neg {
		a1 = 1 / a1
		ae = -ae
	}
	const mask, shift = 0x7ff, 52
	b := math.Float64bits(a1)
	e := int(b>>shift) & mask
	if e == 0 || e == mask || e+ae <= 0 || e+ae >= mask {
		return 0, false
	}
	return math.Float64frombits(b&^(mask<<shift) | uint64(e+ae)<<shift), true
}
