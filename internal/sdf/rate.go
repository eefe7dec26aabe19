package sdf

import (
	"math"
	"math/big"
	"math/bits"
)

// Rate is an exact throughput: Firings completions of a reference actor
// every Period cycles, where Q is that actor's repetition-vector entry,
// so the rate is Firings/(Q·Period) graph iterations per cycle. The zero
// Rate, like any Rate with a component ≤ 0, is the throughput of a
// deadlocked execution.
//
// Rates compare exactly (Cmp, Meets); Float is for reports only, since
// equal rates need not give equal floats (1/(3·1296) and 1/(1·3888)
// round differently).
type Rate struct {
	Firings, Q, Period int64
}

// IsZero reports whether r is the throughput of a deadlocked execution.
func (r Rate) IsZero() bool { return r.Firings <= 0 || r.Q <= 0 || r.Period <= 0 }

// Float returns r in iterations per cycle, computed as
// Firings/Q/Period in float64 — the formula every report and record
// has always used — and 0 for a zero rate.
func (r Rate) Float() float64 {
	if r.IsZero() {
		return 0
	}
	return float64(r.Firings) / float64(r.Q) / float64(r.Period)
}

// Cmp returns -1, 0 or +1 as r is less than, equal to or greater than s.
// It cross-multiplies in 192-bit arithmetic and so cannot overflow.
func (r Rate) Cmp(s Rate) int {
	switch rz, sz := r.IsZero(), s.IsZero(); {
	case rz && sz:
		return 0
	case rz:
		return -1
	case sz:
		return 1
	}
	a := mul3(r.Firings, s.Q, s.Period)
	b := mul3(s.Firings, r.Q, r.Period)
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Meets reports whether r ≥ target, comparing against the exact value of
// the float64 target. A NaN or +Inf target is never met; a target ≤ 0
// always is.
func (r Rate) Meets(target float64) bool {
	switch {
	case math.IsNaN(target) || math.IsInf(target, 1):
		return false
	case target <= 0:
		return true
	case r.IsZero():
		return false
	}
	den := new(big.Int).Mul(big.NewInt(r.Q), big.NewInt(r.Period))
	v := new(big.Rat).SetFrac(big.NewInt(r.Firings), den)
	return v.Cmp(new(big.Rat).SetFloat64(target)) >= 0
}

// mul3 returns the product of three non-negative int64s as a 192-bit
// number, most significant word first.
func mul3(a, b, c int64) [3]uint64 {
	h, l := bits.Mul64(uint64(a), uint64(b))
	h1, lo := bits.Mul64(l, uint64(c))
	h2, l2 := bits.Mul64(h, uint64(c))
	mid, carry := bits.Add64(h1, l2, 0)
	return [3]uint64{h2 + carry, mid, lo}
}
