package dse

import (
	"math/rand"
	"testing"
)

// rateCross returns the two cross products that order the small
// hand-built throughputs of a and b, in int64 and independently of
// sdf.Rate.Cmp.
func rateCross(a, b Point) (int64, int64) {
	x, y := a.Throughput, b.Throughput
	return x.Firings * y.Q * y.Period, y.Firings * x.Q * x.Period
}

// dominatesOracle is the three-objective dominance ParetoFront promises,
// restated: at least as good everywhere, strictly better somewhere.
func dominatesOracle(a, b Point) bool {
	l, r := rateCross(a, b)
	geq := l >= r && a.Area.Slices <= b.Area.Slices && a.Energy.TotalPJ <= b.Energy.TotalPJ
	gt := l > r || a.Area.Slices < b.Area.Slices || a.Energy.TotalPJ < b.Energy.TotalPJ
	return geq && gt
}

func TestDominates(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want bool
	}{
		{"better everywhere", mkPoint(1, 2, 1, 1, 10, 10), mkPoint(2, 1, 1, 1, 20, 20), true},
		{"trade-off", mkPoint(1, 2, 1, 1, 10, 30), mkPoint(2, 1, 1, 1, 10, 20), false},
		{"trade-off reversed", mkPoint(2, 1, 1, 1, 10, 20), mkPoint(1, 2, 1, 1, 10, 30), false},
		{"equal", mkPoint(1, 1, 1, 2, 10, 20), mkPoint(2, 1, 1, 2, 10, 20), false},
		{"weakly better, one strict", mkPoint(1, 1, 1, 2, 5, 20), mkPoint(2, 1, 1, 2, 10, 20), true},
		{"worse", mkPoint(1, 1, 1, 2, 10, 20), mkPoint(2, 1, 1, 1, 10, 20), false},
		{"equal rates, unequal floats", mkPoint(1, 1, 1, 3888, 10, 20), mkPoint(2, 1, 3, 1296, 10, 20), false},
	}
	for _, c := range cases {
		if got := dominates(c.a, c.b); got != c.want {
			t.Errorf("%s: dominates = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestParetoFrontProperty: over random point sets on a small grid
// (plenty of ties, duplicates and equal rates under other
// factorizations), the front is sorted by area, no front member
// dominates another, and every dropped point is dominated by a front
// member.
func TestParetoFrontProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		pts := make([]Point, 1+rng.Intn(30))
		for i := range pts {
			k := 1 + rng.Int63n(3)
			pts[i] = mkPoint(i, (1+rng.Int63n(4))*k, 1+rng.Int63n(3), (1+rng.Int63n(3))*k,
				float64(rng.Intn(5)), rng.Intn(5))
		}
		front := ParetoFront(pts)
		if len(front) == 0 {
			t.Fatalf("trial %d: empty front over %d points", trial, len(pts))
		}
		onFront := map[int]bool{}
		for i, f := range front {
			onFront[f.Tiles] = true
			if i > 0 && f.Area.Slices < front[i-1].Area.Slices {
				t.Fatalf("trial %d: front not sorted by area", trial)
			}
			for _, g := range front {
				if dominatesOracle(g, f) {
					t.Fatalf("trial %d: front member %+v dominates front member %+v", trial, g, f)
				}
			}
		}
		for _, p := range pts {
			if onFront[p.Tiles] {
				continue
			}
			covered := false
			for _, f := range front {
				covered = covered || dominatesOracle(f, p)
			}
			if !covered {
				t.Fatalf("trial %d: dropped point %+v is not dominated by any front member", trial, p)
			}
		}
	}
}

// TestParetoFrontOrderAndDuplicates pins the deterministic contract:
// equal non-dominated points are all kept, in input order.
func TestParetoFrontOrderAndDuplicates(t *testing.T) {
	pts := []Point{
		mkPoint(1, 1, 1, 1, 10, 20), // front
		mkPoint(2, 2, 1, 1, 10, 30), // front
		mkPoint(3, 1, 1, 1, 10, 20), // duplicate of the first: still on the front
		mkPoint(4, 1, 1, 2, 10, 30), // dominated
	}
	front := ParetoFront(pts)
	want := []int{1, 3, 2}
	if len(front) != len(want) {
		t.Fatalf("front = %+v, want tiles %v", front, want)
	}
	for i, f := range front {
		if f.Tiles != want[i] {
			t.Fatalf("front tiles[%d] = %d, want %v", i, f.Tiles, want)
		}
	}
}

// TestParetoFrontKeepsEqualRates: two points equal in every objective
// are both on the front even when their throughputs, one rational,
// round to different floats. Under a float compare the one that rounds
// higher dominates the other.
func TestParetoFrontKeepsEqualRates(t *testing.T) {
	pts := []Point{
		mkPoint(1, 1, 3, 1296, 10, 20),
		mkPoint(2, 1, 1, 3888, 10, 20),
	}
	if pts[0].Throughput.Float() == pts[1].Throughput.Float() {
		t.Fatal("the two throughputs no longer round apart")
	}
	front := ParetoFront(pts)
	if len(front) != 2 || front[0].Tiles != 1 || front[1].Tiles != 2 {
		t.Fatalf("front = %+v, want both points in input order", front)
	}
}
