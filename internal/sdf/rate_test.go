package sdf

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratOf is the math/big oracle for a Rate: Firings/(Q·Period), or 0.
func ratOf(r Rate) *big.Rat {
	if r.IsZero() {
		return new(big.Rat)
	}
	den := new(big.Int).Mul(big.NewInt(r.Q), big.NewInt(r.Period))
	return new(big.Rat).SetFrac(big.NewInt(r.Firings), den)
}

// meetsOracle decides r ≥ target in big.Float arithmetic, independently
// of Meets' big.Rat path: Firings ≥ target·Q·Period, where the product
// of a 53-bit mantissa and two 63-bit integers is exact at 256 bits.
func meetsOracle(r Rate, target float64) bool {
	if math.IsNaN(target) {
		return false
	}
	if r.IsZero() {
		return target <= 0
	}
	if math.IsInf(target, 0) {
		return target < 0
	}
	prod := new(big.Float).SetPrec(256).SetFloat64(target)
	prod.Mul(prod, new(big.Float).SetPrec(256).SetInt64(r.Q))
	prod.Mul(prod, new(big.Float).SetPrec(256).SetInt64(r.Period))
	return new(big.Float).SetPrec(256).SetInt64(r.Firings).Cmp(prod) >= 0
}

func checkRatePair(t *testing.T, a, b Rate) {
	t.Helper()
	if got, want := a.Cmp(b), ratOf(a).Cmp(ratOf(b)); got != want {
		t.Fatalf("%+v.Cmp(%+v) = %d, math/big says %d", a, b, got, want)
	}
	if a.Cmp(b) != -b.Cmp(a) {
		t.Fatalf("Cmp not antisymmetric on %+v, %+v", a, b)
	}
	for _, target := range []float64{a.Float(), b.Float(), math.Nextafter(a.Float(), 0), math.Nextafter(a.Float(), 1)} {
		if got, want := a.Meets(target), meetsOracle(a, target); got != want {
			t.Fatalf("%+v.Meets(%v) = %v, oracle says %v", a, target, got, want)
		}
	}
}

// TestRateTieRoundsApart pins the example that motivates Rate: one
// rational, two floats. A float compare orders 1/(3·1296) below
// 1/(1·3888); Cmp calls them equal, and Float keeps the formula's bits.
func TestRateTieRoundsApart(t *testing.T) {
	a, b := Rate{1, 3, 1296}, Rate{1, 1, 3888}
	if a.Float() != 0.00025720164609053495 || b.Float() != 0.000257201646090535 {
		t.Fatalf("Float = %v, %v; want the Firings/Q/Period formula's 0.00025720164609053495, 0.000257201646090535",
			a.Float(), b.Float())
	}
	if a.Cmp(b) != 0 {
		t.Errorf("Cmp = %d, want 0", a.Cmp(b))
	}
	checkRatePair(t, a, b)
}

// TestRateCmpMatchesBig: over random triples, int64 extremes and zero
// rates, Cmp agrees with math/big and Meets with a big.Float oracle.
func TestRateCmpMatchesBig(t *testing.T) {
	extremes := []int64{0, 1, 2, 3, 1296, 3888, math.MaxInt64, math.MaxInt64 - 1, math.MaxInt32, 1 << 62, -1, math.MinInt64}
	var rates []Rate
	for _, f := range extremes {
		for _, q := range extremes {
			for _, p := range extremes {
				rates = append(rates, Rate{f, q, p})
			}
		}
	}
	for _, a := range rates {
		for _, b := range rates[:200] {
			checkRatePair(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(21))
	draw := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return 1 + rng.Int63n(60)
		case 1:
			return 1 + rng.Int63n(40000)
		}
		return rng.Int63()
	}
	for i := 0; i < 20000; i++ {
		a := Rate{draw(), draw(), draw()}
		b := Rate{draw(), draw(), draw()}
		if i%4 == 0 {
			// An equal rational under another factorization.
			a = Rate{1 + rng.Int63n(60), 1 + rng.Int63n(12), 1 + rng.Int63n(40000)}
			k := 1 + rng.Int63n(12)
			b = Rate{a.Firings * k, a.Q, a.Period * k}
			if i%8 == 0 {
				b = Rate{a.Firings, a.Q * k, a.Period}
				a.Period *= k
			}
		}
		checkRatePair(t, a, b)
	}
}

// FuzzRateCmp checks Cmp against math/big.Rat and Meets against an
// independent big.Float oracle on arbitrary components and targets.
func FuzzRateCmp(f *testing.F) {
	f.Add(int64(1), int64(3), int64(1296), int64(1), int64(1), int64(3888), 0.000257201646090535)
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64), int64(1), int64(1), int64(math.MaxInt64), 1e-300)
	f.Add(int64(0), int64(1), int64(5), int64(-1), int64(1), int64(5), 0.0)
	f.Fuzz(func(t *testing.T, f1, q1, p1, f2, q2, p2 int64, target float64) {
		a, b := Rate{f1, q1, p1}, Rate{f2, q2, p2}
		if got, want := a.Cmp(b), ratOf(a).Cmp(ratOf(b)); got != want {
			t.Fatalf("%+v.Cmp(%+v) = %d, math/big says %d", a, b, got, want)
		}
		if got, want := a.Meets(target), meetsOracle(a, target); got != want {
			t.Fatalf("%+v.Meets(%v) = %v, oracle says %v", a, target, got, want)
		}
	})
}
