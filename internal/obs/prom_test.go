package obs_test

import (
	"strings"
	"testing"

	"mamps/internal/obs"
	"mamps/internal/obs/promtest"
)

// The registry's own exposition — counters, gauges and registered
// histograms — must pass the checker.
func TestRegistryExpositionPassesChecker(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t_events_total", "Events.").Add(3)
	reg.Gauge("t_depth", "Depth.").Store(7)
	h := obs.NewHistogram(0.1, 1, 10)
	h.Observe(0.5)
	h.Observe(50)
	reg.RegisterHistogram("t_latency_seconds", "Latency.", h)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE t_latency_seconds histogram",
		`t_latency_seconds_bucket{le="+Inf"} 2`,
		"t_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := promtest.CheckPrometheusText(strings.NewReader(out)); err != nil {
		t.Errorf("registry exposition fails the checker: %v\n%s", err, out)
	}
}
