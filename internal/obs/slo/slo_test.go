package slo

import (
	"math"
	"strings"
	"testing"
	"time"

	"mamps/internal/clock"
	"mamps/internal/obs/promtest"
)

func newTestBoard() (*Board, *clock.Fake) {
	clk := &clock.Fake{}
	clk.Advance(time.Hour) // away from the zero second
	return NewBoard(clk), clk
}

func TestBurnRateAndBudget(t *testing.T) {
	b, clk := newTestBoard()
	tr := b.Add(Objective{Name: "latency", Target: 0.9})

	// 100 events, 10 bad: bad ratio 0.1 == budget ratio → burn rate 1.
	for i := 0; i < 100; i++ {
		tr.Observe(i%10 != 0)
		clk.Advance(time.Second)
	}
	if burn := tr.BurnRate(SlowWindow); math.Abs(burn-1) > 1e-9 {
		t.Errorf("slow burn = %g, want 1", burn)
	}
	if used := tr.BudgetUsed(); math.Abs(used-1) > 1e-9 {
		t.Errorf("budget used = %g, want 1", used)
	}
	good, bad := tr.Totals()
	if good != 90 || bad != 10 {
		t.Errorf("totals = %d/%d", good, bad)
	}

	// An all-bad fast window: it burns at 1/(1-0.9) = 10.
	for i := 0; i < int(FastWindow/time.Second); i++ {
		tr.Observe(false)
		clk.Advance(time.Second)
	}
	if burn := tr.BurnRate(FastWindow); math.Abs(burn-10) > 1e-9 {
		t.Errorf("fast burn = %g, want 10", burn)
	}
}

func TestWindowExpiry(t *testing.T) {
	b, clk := newTestBoard()
	tr := b.Add(Objective{Name: "x", Target: 0.99})
	tr.Observe(false)
	if tr.BurnRate(FastWindow) == 0 {
		t.Fatal("fresh bad event not visible in the fast window")
	}
	clk.Advance(FastWindow + time.Minute)
	if burn := tr.BurnRate(FastWindow); burn != 0 {
		t.Errorf("fast burn %g after the window passed, want 0", burn)
	}
	if tr.BurnRate(SlowWindow) == 0 {
		t.Error("slow window lost the event too early")
	}
	// Past the slow window the ring has recycled the bucket.
	clk.Advance(SlowWindow)
	if burn := tr.BurnRate(SlowWindow); burn != 0 {
		t.Errorf("slow burn %g after expiry, want 0", burn)
	}
	// All-time accounting is unaffected by expiry.
	if _, bad := tr.Totals(); bad != 1 {
		t.Errorf("bad total = %d, want 1", bad)
	}
}

func TestMultiwindowBurningAlert(t *testing.T) {
	b, clk := newTestBoard()
	tr := b.Add(Objective{Name: "x", Target: 0.99})
	if tr.Burning() {
		t.Fatal("burning with no events")
	}
	// Sustained total failure: both windows saturate at burn 100, above
	// FastBurn and SlowBurn.
	for i := 0; i < 600; i++ {
		tr.Observe(false)
		clk.Advance(time.Second)
	}
	if !tr.Burning() {
		t.Fatal("sustained failure not burning")
	}
	// Recovery: the fast window clears first and the alert resets even
	// though the slow window still burns.
	for i := 0; i < int(FastWindow/time.Second)+30; i++ {
		tr.Observe(true)
		clk.Advance(time.Second)
	}
	if fast := tr.BurnRate(FastWindow); fast != 0 {
		t.Errorf("fast burn = %g after recovery, want 0", fast)
	}
	if slow := tr.BurnRate(SlowWindow); slow <= SlowBurn {
		t.Errorf("slow burn = %g, expected still above %g", slow, float64(SlowBurn))
	}
	if tr.Burning() {
		t.Error("alert did not reset when the fast window recovered")
	}
}

func TestNilSafety(t *testing.T) {
	var b *Board
	tr := b.Add(Objective{Name: "x"})
	tr.Observe(true) // must not panic
	if tr.BurnRate(FastWindow) != 0 || tr.Burning() || tr.BudgetUsed() != 0 {
		t.Error("nil tracker not inert")
	}
	var sb strings.Builder
	b.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Error("nil board wrote output")
	}
}

func TestWritePrometheusPassesChecker(t *testing.T) {
	b, clk := newTestBoard()
	lat := b.Add(Objective{Name: "analyze_latency", Target: 0.99})
	thr := b.Add(Objective{Name: "throughput_met", Target: 0.95})
	for i := 0; i < 20; i++ {
		lat.Observe(i != 0)
		thr.Observe(true)
		clk.Advance(time.Second)
	}
	var sb strings.Builder
	b.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`mamps_slo_target{slo="analyze_latency"} 0.99`,
		`mamps_slo_bad_total{slo="analyze_latency"} 1`,
		`mamps_slo_good_total{slo="throughput_met"} 20`,
		`mamps_slo_burn_rate{slo="analyze_latency",window="fast"}`,
		`mamps_slo_burning{slo="throughput_met"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := promtest.CheckPrometheusText(strings.NewReader(out)); err != nil {
		t.Errorf("board exposition fails the checker: %v\n%s", err, out)
	}
}
