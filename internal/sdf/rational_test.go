package sdf

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewRatNormalization(t *testing.T) {
	cases := []struct {
		num, den, wn, wd int64
	}{
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{7, 7, 1, 1},
		{12, 8, 3, 2},
	}
	for _, c := range cases {
		r := NewRat(c.num, c.den)
		if r.Num != c.wn || r.Den != c.wd {
			t.Errorf("NewRat(%d,%d) = %v, want %d/%d", c.num, c.den, r, c.wn, c.wd)
		}
	}
}

func TestRatZeroDenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRat(1, 0)
}

func TestRatMulDiv(t *testing.T) {
	r := NewRat(2, 3).Mul(NewRat(9, 4))
	if !r.Equal(NewRat(3, 2)) {
		t.Errorf("2/3 * 9/4 = %v, want 3/2", r)
	}
	d := NewRat(1, 2).Div(NewRat(3, 4))
	if !d.Equal(NewRat(2, 3)) {
		t.Errorf("1/2 / 3/4 = %v, want 2/3", d)
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRat(1, 2).Div(NewRat(0, 1))
}

func TestRatString(t *testing.T) {
	if s := NewRat(3, 1).String(); s != "3" {
		t.Errorf("String = %q, want 3", s)
	}
	if s := NewRat(3, 2).String(); s != "3/2" {
		t.Errorf("String = %q, want 3/2", s)
	}
}

// Property: (a/b)*(b/a) == 1 for non-zero a, b drawn from a bounded range.
func TestRatMulInverseProperty(t *testing.T) {
	f := func(a, b int16) bool {
		if a == 0 || b == 0 {
			return true
		}
		r := NewRat(int64(a), int64(b))
		return r.Mul(NewRat(int64(b), int64(a))).Equal(NewRat(1, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplication commutes.
func TestRatMulCommutesProperty(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		if b == 0 || d == 0 {
			return true
		}
		x := NewRat(int64(a), int64(b))
		y := NewRat(int64(c), int64(d))
		return x.Mul(y).Equal(y.Mul(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGCDLCM(t *testing.T) {
	if g := gcd64(12, 18); g != 6 {
		t.Errorf("gcd(12,18) = %d", g)
	}
	if g := gcd64(0, 0); g != 1 {
		t.Errorf("gcd(0,0) = %d, want 1 (identity guard)", g)
	}
	if l := lcm64(4, 6); l != 12 {
		t.Errorf("lcm(4,6) = %d", l)
	}
}

func TestMulCheckedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	mulChecked(1<<40, 1<<40)
}

func TestLCMOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	lcm64((1<<62)+1, (1<<61)+1)
}

func TestRatCrossReduction(t *testing.T) {
	// Large numerators that would overflow without cross-reduction.
	a := NewRat(1<<40, 3)
	b := NewRat(3, 1<<40)
	if !a.Mul(b).Equal(NewRat(1, 1)) {
		t.Fatal("cross-reduced product wrong")
	}
}

// TestRepetitionVectorOverflowIsError: a chain whose coprime rates near
// 10^6 make the fractions outgrow int64 yields an error, not a panic.
func TestRepetitionVectorOverflowIsError(t *testing.T) {
	g := NewGraph("overflow")
	prev := g.AddActor("a0", 1)
	for i, r := range [][2]int{{1000003, 999983}, {1000033, 999979}, {1000037, 999961}, {1000039, 999959}} {
		next := g.AddActor(fmt.Sprintf("a%d", i+1), 1)
		g.Connect(prev, next, r[0], r[1], 0)
		prev = next
	}
	q, err := g.RepetitionVector()
	if !errors.Is(err, errOverflow) || q != nil {
		t.Fatalf("RepetitionVector = %v, %v; want nil and the overflow error", q, err)
	}
	if g.IsConsistent() {
		t.Fatal("an overflowing graph reported consistent")
	}
}
