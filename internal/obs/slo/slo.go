// Package slo tracks service-level objectives with error-budget
// accounting and multiwindow burn-rate alerting, the Google-SRE-style
// formulation: an objective declares a target good-event ratio (e.g.
// 99% of analyze requests answered within the latency bound), every
// relevant event is classified good or bad, and the burn rate over a
// window is
//
//	burn = badRatio(window) / (1 - target)
//
// — 1.0 means the error budget is being consumed exactly at the rate
// that would exhaust it by the end of the budget period, 14.4 means a
// 30-day budget burns in 2 days. An alert that requires BOTH a fast
// window (catches sudden outage, resets quickly) and a slow window
// (suppresses blips) to burn hot is the standard low-noise page.
//
// Trackers bucket events at one-second granularity in a fixed ring
// sized by the slow window, driven by an injectable clock so tests (and
// replay tooling) control time. A Board groups trackers and renders the
// whole SLO surface as mamps_slo_* series in the Prometheus text
// format; the output passes promtest.CheckPrometheusText.
package slo

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mamps/internal/clock"
)

// The burn-rate windows and alert thresholds every objective uses: an
// objective is "burning" while BOTH windows exceed their threshold (the
// classic 30-day-budget page thresholds). The slow window is also the
// retention of a tracker's ring.
const (
	FastWindow = 5 * time.Minute
	SlowWindow = time.Hour
	FastBurn   = 14.4
	SlowBurn   = 6
)

// Objective declares one SLO.
type Objective struct {
	// Name labels the objective's series (mamps_slo_*{slo="<Name>"}).
	Name string
	// Target is the good-event ratio promised, in (0,1), e.g. 0.99; any
	// other value selects 0.99.
	Target float64
}

// bucket is one second of event counts.
type bucket struct {
	sec       int64 // unix second this bucket currently holds
	good, bad int64
}

// Tracker accounts one objective's events. All methods are safe for
// concurrent use; a nil *Tracker ignores observations, so callers
// never branch on whether SLO tracking is enabled.
type Tracker struct {
	obj Objective
	clk clock.Clock

	mu   sync.Mutex
	ring []bucket
	good int64 // all-time totals
	bad  int64
}

func newTracker(obj Objective, clk clock.Clock) *Tracker {
	if obj.Target <= 0 || obj.Target >= 1 {
		obj.Target = 0.99
	}
	return &Tracker{obj: obj, clk: clk, ring: make([]bucket, SlowWindow/time.Second)}
}

// Observe records one event.
func (t *Tracker) Observe(good bool) {
	if t == nil {
		return
	}
	sec := t.clk.Now().Unix()
	t.mu.Lock()
	b := &t.ring[sec%int64(len(t.ring))]
	if b.sec != sec {
		*b = bucket{sec: sec}
	}
	if good {
		b.good++
		t.good++
	} else {
		b.bad++
		t.bad++
	}
	t.mu.Unlock()
}

// window sums the events of the last d (capped at the slow window).
// Caller holds t.mu.
func (t *Tracker) window(d time.Duration) (good, bad int64) {
	now := t.clk.Now().Unix()
	from := now - int64(d/time.Second) + 1
	for i := range t.ring {
		b := &t.ring[i]
		if b.sec >= from && b.sec <= now {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// BurnRate returns the burn rate over the last d: the window's bad
// ratio divided by the budget ratio (1 - target). Zero when the window
// saw no events.
func (t *Tracker) BurnRate(d time.Duration) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	good, bad := t.window(d)
	if good+bad == 0 {
		return 0
	}
	return (float64(bad) / float64(good+bad)) / (1 - t.obj.Target)
}

// Burning reports the multiwindow alert: both the fast and the slow
// window burning above their thresholds.
func (t *Tracker) Burning() bool {
	if t == nil {
		return false
	}
	return t.BurnRate(FastWindow) > FastBurn && t.BurnRate(SlowWindow) > SlowBurn
}

// Totals returns the all-time good and bad event counts.
func (t *Tracker) Totals() (good, bad int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.good, t.bad
}

// BudgetUsed returns the fraction of the all-time error budget
// consumed: bad / (total · (1 - target)). 1.0 means the budget is
// exactly spent; above 1 the objective is out of budget.
func (t *Tracker) BudgetUsed() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.good+t.bad == 0 {
		return 0
	}
	return float64(t.bad) / (float64(t.good+t.bad) * (1 - t.obj.Target))
}

// Board is a named set of trackers with a combined Prometheus
// exposition. A nil *Board hands out nil trackers.
type Board struct {
	clk clock.Clock

	mu       sync.Mutex
	trackers map[string]*Tracker
}

// NewBoard returns an empty board over the given clock (nil selects
// the system clock).
func NewBoard(clk clock.Clock) *Board {
	if clk == nil {
		clk = clock.System()
	}
	return &Board{clk: clk, trackers: map[string]*Tracker{}}
}

// Add registers an objective and returns its tracker. Adding a name
// twice returns the existing tracker (first declaration wins).
func (b *Board) Add(obj Objective) *Tracker {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.trackers[obj.Name]; ok {
		return t
	}
	t := newTracker(obj, b.clk)
	b.trackers[obj.Name] = t
	return t
}

// State is a point-in-time snapshot of one objective, as embedded in
// diagnostic bundles.
type State struct {
	Name       string  `json:"name"`
	Target     float64 `json:"target"`
	Good       int64   `json:"good"`
	Bad        int64   `json:"bad"`
	BudgetUsed float64 `json:"budgetUsed"`
	FastBurn   float64 `json:"fastBurn"`
	SlowBurn   float64 `json:"slowBurn"`
	Burning    bool    `json:"burning"`
}

// States snapshots every tracker, sorted by objective name. A nil board
// returns nil.
func (b *Board) States() []State {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	names := make([]string, 0, len(b.trackers))
	for name := range b.trackers {
		names = append(names, name)
	}
	sort.Strings(names)
	ts := make([]*Tracker, 0, len(names))
	for _, name := range names {
		ts = append(ts, b.trackers[name])
	}
	b.mu.Unlock()
	states := make([]State, 0, len(ts))
	for i, t := range ts {
		good, bad := t.Totals()
		states = append(states, State{
			Name:       names[i],
			Target:     t.obj.Target,
			Good:       good,
			Bad:        bad,
			BudgetUsed: t.BudgetUsed(),
			FastBurn:   t.BurnRate(FastWindow),
			SlowBurn:   t.BurnRate(SlowWindow),
			Burning:    t.Burning(),
		})
	}
	return states
}

// WritePrometheus renders the board as mamps_slo_* series, one label
// set per objective, sorted by name. A nil board writes nothing.
func (b *Board) WritePrometheus(w io.Writer) {
	if b == nil {
		return
	}
	b.mu.Lock()
	names := make([]string, 0, len(b.trackers))
	for name := range b.trackers {
		names = append(names, name)
	}
	ts := make([]*Tracker, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ts = append(ts, b.trackers[name])
	}
	b.mu.Unlock()
	if len(ts) == 0 {
		return
	}

	emit := func(name, help, typ string, value func(*Tracker) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i, t := range ts {
			fmt.Fprintf(w, "%s{slo=%q} %s\n", name, names[i], value(t))
		}
	}
	emit("mamps_slo_target", "Declared good-event ratio target of the objective.", "gauge",
		func(t *Tracker) string { return fmt.Sprintf("%g", t.obj.Target) })
	emit("mamps_slo_good_total", "Events meeting the objective.", "counter",
		func(t *Tracker) string { g, _ := t.Totals(); return fmt.Sprintf("%d", g) })
	emit("mamps_slo_bad_total", "Events violating the objective.", "counter",
		func(t *Tracker) string { _, bad := t.Totals(); return fmt.Sprintf("%d", bad) })
	emit("mamps_slo_budget_used", "Fraction of the all-time error budget consumed.", "gauge",
		func(t *Tracker) string { return fmt.Sprintf("%g", t.BudgetUsed()) })

	fmt.Fprintf(w, "# HELP mamps_slo_burn_rate Error-budget burn rate over the fast and slow windows.\n")
	fmt.Fprintf(w, "# TYPE mamps_slo_burn_rate gauge\n")
	for i, t := range ts {
		fmt.Fprintf(w, "mamps_slo_burn_rate{slo=%q,window=\"fast\"} %g\n", names[i], t.BurnRate(FastWindow))
		fmt.Fprintf(w, "mamps_slo_burn_rate{slo=%q,window=\"slow\"} %g\n", names[i], t.BurnRate(SlowWindow))
	}
	emit("mamps_slo_burning", "1 while both burn-rate windows exceed their alert thresholds.", "gauge",
		func(t *Tracker) string {
			if t.Burning() {
				return "1"
			}
			return "0"
		})
}
