package sdf

import (
	"errors"
	"fmt"
)

// Rat is a rational number with int64 components, always stored in lowest
// terms with a positive denominator. It is sufficient for repetition-vector
// computation on realistic graphs; overflow indicates a degenerate model and
// panics with errOverflow rather than silently corrupting the analysis.
type Rat struct {
	Num, Den int64
}

// NewRat returns the rational num/den in lowest terms.
func NewRat(num, den int64) Rat {
	if den == 0 {
		panic("sdf: rational with zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd64(abs64(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Rat{num, den}
}

// Mul returns r*s.
func (r Rat) Mul(s Rat) Rat {
	// Cross-reduce before multiplying to delay overflow.
	g1 := gcd64(abs64(r.Num), s.Den)
	g2 := gcd64(abs64(s.Num), r.Den)
	num := mulChecked(r.Num/g1, s.Num/g2)
	den := mulChecked(r.Den/g2, s.Den/g1)
	return NewRat(num, den)
}

// Div returns r/s. s must be non-zero.
func (r Rat) Div(s Rat) Rat {
	if s.Num == 0 {
		panic("sdf: rational division by zero")
	}
	return r.Mul(Rat{s.Den, s.Num})
}

// Equal reports whether r and s denote the same rational.
func (r Rat) Equal(s Rat) bool { return r.Num == s.Num && r.Den == s.Den }

// IsZero reports whether r is zero.
func (r Rat) IsZero() bool { return r.Num == 0 }

func (r Rat) String() string {
	if r.Den == 1 {
		return fmt.Sprintf("%d", r.Num)
	}
	return fmt.Sprintf("%d/%d", r.Num, r.Den)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func lcm64(a, b int64) int64 {
	return mulChecked(a/gcd64(a, b), b)
}

func mulChecked(a, b int64) int64 {
	p := a * b
	if a != 0 && (p/a != b || (a == -1 && b == minInt64) || (b == -1 && a == minInt64)) {
		panic(errOverflow)
	}
	return p
}

const minInt64 = -1 << 63

// errOverflow is the panic value of int64 overflow in rational arithmetic.
// RepetitionVector turns it into an error.
var errOverflow = errors.New("sdf: integer overflow in rational arithmetic")
