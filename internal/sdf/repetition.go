package sdf

import "fmt"

// RepetitionVector computes the minimal positive integer solution of the
// balance equations
//
//	q(src)·SrcRate = q(dst)·DstRate   for every channel,
//
// i.e. the number of firings of each actor in one graph iteration. The graph
// must be sample-rate consistent and weakly connected; otherwise an error
// describing the first conflicting channel (or the disconnection) is
// returned, as it is when the vector does not fit int64.
func (g *Graph) RepetitionVector() (_ []int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p != errOverflow {
				panic(p)
			}
			err = fmt.Errorf("sdf: graph %q: repetition vector: %w", g.Name, errOverflow)
		}
	}()
	n := len(g.actors)
	if n == 0 {
		return nil, fmt.Errorf("sdf: graph %q has no actors", g.Name)
	}
	frac := make([]Rat, n)
	seen := make([]bool, n)

	// Propagate fractional firing ratios by DFS from actor 0.
	var dfs func(a ActorID) error
	dfs = func(a ActorID) error {
		seen[a] = true
		actor := g.actors[a]
		visit := func(c *Channel) error {
			var other ActorID
			var ratio Rat // frac[other] = frac[a] * ratio
			if c.Src == a {
				other = c.Dst
				ratio = NewRat(int64(c.SrcRate), int64(c.DstRate))
			} else {
				other = c.Src
				ratio = NewRat(int64(c.DstRate), int64(c.SrcRate))
			}
			want := frac[a].Mul(ratio)
			if !seen[other] {
				frac[other] = want
				return dfs(other)
			}
			if !frac[other].Equal(want) {
				return fmt.Errorf("sdf: graph %q is not consistent: channel %q requires q(%s)/q(%s) = %d/%d",
					g.Name, c.Name, g.actors[c.Src].Name, g.actors[c.Dst].Name, c.DstRate, c.SrcRate)
			}
			return nil
		}
		for _, cid := range actor.out {
			if err := visit(g.channels[cid]); err != nil {
				return err
			}
		}
		for _, cid := range actor.in {
			if err := visit(g.channels[cid]); err != nil {
				return err
			}
		}
		return nil
	}

	frac[0] = NewRat(1, 1)
	if err := dfs(0); err != nil {
		return nil, err
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("sdf: graph %q is not connected: actor %q unreachable from %q",
				g.Name, g.actors[id].Name, g.actors[0].Name)
		}
	}

	// Scale all fractions to the minimal integer vector.
	l := int64(1)
	for _, f := range frac {
		l = lcm64(l, f.Den)
	}
	q := make([]int64, n)
	var g0 int64
	for i, f := range frac {
		q[i] = mulChecked(f.Num, l/f.Den)
		if q[i] <= 0 {
			return nil, fmt.Errorf("sdf: graph %q has non-positive repetition count for actor %q", g.Name, g.actors[i].Name)
		}
		g0 = gcd64(g0, q[i])
	}
	if g0 > 1 {
		for i := range q {
			q[i] /= g0
		}
	}
	return q, nil
}

// IsConsistent reports whether the graph is sample-rate consistent and
// connected, i.e. whether a repetition vector exists.
func (g *Graph) IsConsistent() bool {
	_, err := g.RepetitionVector()
	return err == nil
}

// IterationTokens returns the total number of tokens communicated over the
// channel in one graph iteration, given the graph's repetition vector.
func (g *Graph) IterationTokens(c *Channel, q []int64) int64 {
	return q[c.Src] * int64(c.SrcRate)
}
