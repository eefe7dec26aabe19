// Package faults is the deterministic fault engine of the resilience
// layer: it injects bounded execution-time jitter, transient interconnect
// degradation, and tile fail-stop into the platform simulation, turning
// the paper's conservativeness claim — measured throughput never drops
// below the SDF3 worst-case bound — into a property that is exercised
// under adversity instead of only on the happy path.
//
// Determinism contract: every fault decision is a pure function of the
// scenario seed and the coordinates of the event it applies to (fault
// model, subject name, event index). The engine carries no mutable PRNG
// state; each draw hashes its coordinates through splitmix64. Two
// consequences the tests rely on:
//
//   - identical seed ⇒ bit-identical fault schedule and simulation
//     result across runs, regardless of platform or scheduling order;
//   - split streams: every fault model draws from its own stream (the
//     model tag is part of the hash), so adding or removing one model
//     never perturbs the decisions of another.
//
// The three models are bounded by construction where the conservativeness
// claim demands it: jitter never pushes a firing past its actor's WCET
// (the quantity the analysis bound is built from), and degradation stalls
// are capped per word by the scenario.
package faults

import (
	"fmt"
	"hash/fnv"
)

// Spec declares a fault scenario. It is plain data — JSON-serializable
// for the /v1/flow request field and parseable from the mamps-flow
// -inject grammar (see ParseSpec) — and must be compiled into an Engine
// before use.
type Spec struct {
	// Seed selects the deterministic fault schedule. Scenarios with the
	// same seed and models are bit-identical across runs.
	Seed uint64 `json:"seed,omitempty"`

	// JitterFrac ∈ [0,1] enables per-firing execution-time jitter: each
	// firing is lengthened by a uniform draw from [0, JitterFrac·headroom]
	// cycles, where headroom is the actor's WCET minus the firing's
	// measured execution time. The jittered time therefore never exceeds
	// the WCET, so the analysis bound stays valid.
	JitterFrac float64 `json:"jitterFrac,omitempty"`

	// Degradations are transient link/NoC degradation windows: words
	// injected into a matching connection while a window is active are
	// delayed by a per-word stall drawn from [1, MaxStall] cycles.
	Degradations []Degradation `json:"degradations,omitempty"`

	// FailTile names a tile that fail-stops at cycle FailCycle: from that
	// cycle on the tile executes nothing, and the simulation aborts with
	// *ErrTileFailed so the flow can re-map onto the surviving tiles.
	FailTile  string `json:"failTile,omitempty"`
	FailCycle int64  `json:"failCycle,omitempty"`
}

// Degradation is one transient interconnect degradation window.
type Degradation struct {
	// Channel names the affected inter-tile channel; empty (or "*" in the
	// -inject grammar) matches every connection.
	Channel string `json:"channel,omitempty"`
	// From/Until bound the window in cycles: active for From <= t < Until.
	From  int64 `json:"from"`
	Until int64 `json:"until"`
	// MaxStall caps the extra cycles one word injection can be delayed.
	MaxStall int64 `json:"maxStall"`
}

// Validate checks the scenario bounds.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.JitterFrac < 0 || s.JitterFrac > 1 {
		return fmt.Errorf("faults: jitter fraction %v out of [0,1]", s.JitterFrac)
	}
	for i, d := range s.Degradations {
		if d.MaxStall < 0 {
			return fmt.Errorf("faults: degradation %d has negative stall %d", i, d.MaxStall)
		}
		if d.Until < d.From {
			return fmt.Errorf("faults: degradation %d window [%d,%d) is inverted", i, d.From, d.Until)
		}
	}
	if s.FailTile == "" && s.FailCycle != 0 {
		return fmt.Errorf("faults: fail cycle %d without a fail tile", s.FailCycle)
	}
	if s.FailCycle < 0 {
		return fmt.Errorf("faults: negative fail cycle %d", s.FailCycle)
	}
	return nil
}

// Empty reports a scenario with no fault model enabled.
func (s *Spec) Empty() bool {
	return s == nil || (s.JitterFrac == 0 && len(s.Degradations) == 0 && s.FailTile == "")
}

// WithoutFailStop returns a copy of the scenario with the fail-stop model
// removed; the jitter and degradation streams are unchanged (split
// streams). The flow's degraded-mode re-execution uses this: the failed
// tile is gone from the platform, but the environment stays adverse.
func (s *Spec) WithoutFailStop() *Spec {
	if s == nil {
		return nil
	}
	c := *s
	c.FailTile = ""
	c.FailCycle = 0
	c.Degradations = append([]Degradation(nil), s.Degradations...)
	return &c
}

// Engine compiles the scenario, validating it.
func (s *Spec) Engine() (*Engine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Empty() {
		return nil, nil
	}
	return &Engine{spec: *s}, nil
}

// Engine answers the simulator's fault queries. It is stateless (see the
// package comment for the determinism contract) and nil-tolerant: every
// method on a nil engine reports "no fault".
type Engine struct {
	spec Spec
}

// Spec returns the scenario the engine was compiled from.
func (e *Engine) Spec() Spec {
	if e == nil {
		return Spec{}
	}
	return e.spec
}

// Stream tags: each fault model hashes its own tag into every draw, which
// is what keeps the streams independent of one another.
const (
	streamJitter  = "jitter"
	streamDegrade = "degrade"
)

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche over the 64-bit key space, here used as a counter-based PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0, n) for the event at (stream,
// subject, index) under the scenario seed; n must be positive.
func (e *Engine) draw(stream, subject string, index int64, n int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	h.Write([]byte{0})
	h.Write([]byte(subject))
	key := splitmix64(splitmix64(e.spec.Seed^h.Sum64()) ^ uint64(index))
	return int64(key % uint64(n))
}

// ExecJitter returns the extra cycles to add to one firing of the actor:
// a uniform draw from [0, JitterFrac·headroom], where headroom is the
// actor's WCET minus the firing's measured execution time (so the
// jittered time never exceeds the WCET). firing indexes the actor's
// firings from zero.
func (e *Engine) ExecJitter(actor string, firing int64, headroom int64) int64 {
	if e == nil || e.spec.JitterFrac == 0 || headroom <= 0 {
		return 0
	}
	bound := int64(e.spec.JitterFrac * float64(headroom))
	if bound <= 0 {
		return 0
	}
	return e.draw(streamJitter, actor, firing, bound+1)
}

// WordStall returns the extra delay, in cycles, for injecting word number
// `word` of the named channel into its connection at cycle now: zero
// outside every matching degradation window, otherwise a draw from
// [1, MaxStall] of the first active window.
func (e *Engine) WordStall(channel string, word int64, now int64) int64 {
	if e == nil {
		return 0
	}
	for _, d := range e.spec.Degradations {
		if d.Channel != "" && d.Channel != channel {
			continue
		}
		if now < d.From || now >= d.Until || d.MaxStall == 0 {
			continue
		}
		return 1 + e.draw(streamDegrade, channel, word, d.MaxStall)
	}
	return 0
}

// TileFailCycle reports the scheduled fail-stop cycle of the named tile.
func (e *Engine) TileFailCycle(tile string) (int64, bool) {
	if e == nil || e.spec.FailTile != tile {
		return 0, false
	}
	return e.spec.FailCycle, true
}

// ErrTileFailed is the typed outcome of a fail-stop: the simulation
// stopped because the named tile died at the scheduled cycle. The flow
// matches it with errors.As to enter degraded-mode recovery.
type ErrTileFailed struct {
	Tile  string
	Cycle int64
}

func (e *ErrTileFailed) Error() string {
	return fmt.Sprintf("faults: tile %s fail-stop at cycle %d", e.Tile, e.Cycle)
}
