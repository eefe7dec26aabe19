// Package buffer implements buffer sizing for SDF graphs: finding channel
// capacities that are large enough to sustain a required throughput and
// small enough to fit the distributed memories of the MAMPS tiles.
//
// A bounded channel is modelled, as in SDF3, by a reverse channel carrying
// "space" tokens: the producer consumes SrcRate space tokens per firing and
// the consumer returns DstRate space tokens when it consumes data. The
// initial number of space tokens is capacity − initialTokens. The bounded
// graph is then analyzed with the ordinary state-space throughput analysis;
// this both guarantees boundedness of the exploration and yields the exact
// throughput under the chosen capacities.
package buffer

import (
	"fmt"
	"math"

	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// Distribution assigns a capacity in tokens to every channel of a graph,
// indexed by ChannelID. A zero entry means the channel is left unbounded
// (used for self-loops, which are already bounded by construction).
type Distribution []int

// Clone returns a copy of the distribution.
func (d Distribution) Clone() Distribution {
	return append(Distribution(nil), d...)
}

// Total returns the total buffered tokens over all bounded channels.
func (d Distribution) Total() int {
	t := 0
	for _, v := range d {
		t += v
	}
	return t
}

// TotalBytes returns the total buffer memory in bytes for graph g.
func (d Distribution) TotalBytes(g *sdf.Graph) int {
	t := 0
	for id, v := range d {
		if v > 0 {
			sz := g.Channel(sdf.ChannelID(id)).TokenSize
			if sz <= 0 {
				sz = 4
			}
			t += v * sz
		}
	}
	return t
}

// Apply returns a clone of g in which every channel with a positive
// capacity in d is bounded by a space-token back-channel. The returned
// slice maps each bounded channel to the ID of its space channel (or -1).
func Apply(g *sdf.Graph, d Distribution) (*sdf.Graph, []sdf.ChannelID) {
	ng := g.Clone()
	space := make([]sdf.ChannelID, g.NumChannels())
	for i := range space {
		space[i] = -1
	}
	for id, cap := range d {
		if cap <= 0 {
			continue
		}
		c := ng.Channel(sdf.ChannelID(id))
		if c.IsSelfLoop() {
			continue
		}
		if cap < c.InitialTokens {
			panic(fmt.Sprintf("buffer: capacity %d below initial tokens %d on channel %q", cap, c.InitialTokens, c.Name))
		}
		sc := ng.Connect(ng.Actor(c.Dst), ng.Actor(c.Src), c.DstRate, c.SrcRate, cap-c.InitialTokens)
		sc.Name = c.Name + "_space"
		sc.TokenSize = 0
		space[id] = sc.ID
	}
	return ng, space
}

// LowerBounds returns a per-channel lower bound on capacity below which the
// channel can never carry a full production or consumption:
// max(initialTokens, srcRate + dstRate − gcd(srcRate, dstRate)), the
// classical minimal bound for a potentially live rate pair. Self-loops get
// capacity 0 (unbounded marker).
func LowerBounds(g *sdf.Graph) Distribution {
	d := make(Distribution, g.NumChannels())
	for _, c := range g.Channels() {
		if c.IsSelfLoop() {
			continue
		}
		lb := c.SrcRate + c.DstRate - gcd(c.SrcRate, c.DstRate)
		if c.InitialTokens > lb {
			lb = c.InitialTokens
		}
		d[c.ID] = lb
	}
	return d
}

// Evaluate returns the worst-case throughput of g under distribution d,
// using the given analysis options (schedules are honoured).
func Evaluate(g *sdf.Graph, d Distribution, opt statespace.Options) (float64, error) {
	return EvaluateWith(g, d, nil, opt)
}

// EvaluateWith is Evaluate through a custom analysis entry point (e.g.
// the service's cache.Analyzer); nil analyze selects
// statespace.Analyze. The entry point must be semantically equivalent to
// statespace.Analyze.
func EvaluateWith(g *sdf.Graph, d Distribution, analyze func(*sdf.Graph, statespace.Options) (statespace.Result, error), opt statespace.Options) (float64, error) {
	if analyze == nil {
		analyze = statespace.Analyze
	}
	bg, _ := Apply(g, d)
	r, err := analyze(bg, opt)
	if err != nil {
		return 0, err
	}
	return r.Throughput, nil
}

// Options configures Minimize and Pareto.
type Options struct {
	// Analyze, if set, replaces the direct statespace.Analyze call of
	// every evaluation (see EvaluateWith).
	Analyze func(*sdf.Graph, statespace.Options) (statespace.Result, error)
}

// maxSteps bounds the number of capacity increments Minimize makes.
const maxSteps = 4096

// Minimize searches for a small buffer distribution whose throughput is at
// least target (iterations/cycle). It starts from the per-channel lower
// bounds and greedily grows the channel whose increment yields the best
// throughput gain (ties broken by smallest memory cost), the strategy used
// by SDF3's buffer-sizing heuristics. The result is not guaranteed to be
// globally minimal but is deadlock-free and meets the target.
func Minimize(g *sdf.Graph, target float64, opt Options) (Distribution, float64, error) {
	d := LowerBounds(g)
	thr, err := EvaluateWith(g, d, opt.Analyze, statespace.Options{})
	if err != nil {
		return nil, 0, err
	}
	for step := 0; step < maxSteps; step++ {
		if thr >= target-1e-12 {
			return d, thr, nil
		}
		bestThr := thr
		bestCh := -1
		bestCost := math.MaxInt
		for _, c := range g.Channels() {
			if c.IsSelfLoop() {
				continue
			}
			inc := gcd(c.SrcRate, c.DstRate)
			trial := d.Clone()
			trial[c.ID] += inc
			tThr, err := EvaluateWith(g, trial, opt.Analyze, statespace.Options{})
			if err != nil {
				return nil, 0, err
			}
			cost := inc * max(1, c.TokenSize)
			if tThr > bestThr+1e-15 || (tThr == bestThr && bestCh == -1 && tThr > thr) {
				bestThr, bestCh, bestCost = tThr, int(c.ID), cost
			} else if tThr >= bestThr-1e-15 && bestCh >= 0 && cost < bestCost && tThr > thr {
				bestCh, bestCost = int(c.ID), cost
			}
		}
		if bestCh < 0 {
			// No single increment improves throughput; grow the channel
			// on the critical cycle conservatively: bump all channels by
			// one step (rarely needed; prevents getting stuck at
			// plateaus where two buffers must grow together).
			improved := false
			trial := d.Clone()
			for _, c := range g.Channels() {
				if !c.IsSelfLoop() {
					trial[c.ID] += gcd(c.SrcRate, c.DstRate)
				}
			}
			tThr, err := EvaluateWith(g, trial, opt.Analyze, statespace.Options{})
			if err != nil {
				return nil, 0, err
			}
			if tThr > thr+1e-15 {
				d, thr = trial, tThr
				improved = true
			}
			if !improved {
				return d, thr, fmt.Errorf("buffer: target throughput %g unreachable (best %g with unlimited growth stalled)", target, thr)
			}
			continue
		}
		d[bestCh] += gcd(g.Channel(sdf.ChannelID(bestCh)).SrcRate, g.Channel(sdf.ChannelID(bestCh)).DstRate)
		thr = bestThr
	}
	return d, thr, fmt.Errorf("buffer: no distribution meeting throughput %g within %d steps (reached %g)", target, maxSteps, thr)
}

// ParetoPoint is one point of the storage/throughput trade-off.
type ParetoPoint struct {
	Distribution Distribution
	TotalTokens  int
	Throughput   float64
}

// Pareto sweeps buffer budgets from the lower bounds upward and returns the
// sequence of (storage, throughput) points at which throughput improves.
// The sweep stops when maxTotal tokens are reached or throughput stops
// improving for a full round.
func Pareto(g *sdf.Graph, maxTotal int, opt Options) ([]ParetoPoint, error) {
	d := LowerBounds(g)
	thr, err := EvaluateWith(g, d, opt.Analyze, statespace.Options{})
	if err != nil {
		return nil, err
	}
	points := []ParetoPoint{{d.Clone(), d.Total(), thr}}
	for d.Total() < maxTotal {
		bestThr := thr
		bestCh := -1
		for _, c := range g.Channels() {
			if c.IsSelfLoop() {
				continue
			}
			trial := d.Clone()
			trial[c.ID] += gcd(c.SrcRate, c.DstRate)
			tThr, err := EvaluateWith(g, trial, opt.Analyze, statespace.Options{})
			if err != nil {
				return nil, err
			}
			if tThr > bestThr+1e-15 {
				bestThr, bestCh = tThr, int(c.ID)
			}
		}
		if bestCh < 0 {
			break
		}
		d[bestCh] += gcd(g.Channel(sdf.ChannelID(bestCh)).SrcRate, g.Channel(sdf.ChannelID(bestCh)).DstRate)
		thr = bestThr
		points = append(points, ParetoPoint{d.Clone(), d.Total(), thr})
	}
	return points, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
