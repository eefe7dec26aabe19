package promtest

import (
	"strings"
	"testing"
)

func TestCheckPrometheusTextAcceptsWellFormed(t *testing.T) {
	doc := `# HELP mamps_jobs_total Jobs completed.
# TYPE mamps_jobs_total counter
mamps_jobs_total 42
# HELP mamps_workers Worker pool size.
# TYPE mamps_workers gauge
mamps_workers 4
# HELP mamps_request_seconds Request latency.
# TYPE mamps_request_seconds histogram
mamps_request_seconds_bucket{endpoint="flow",le="0.1"} 1
mamps_request_seconds_bucket{endpoint="flow",le="+Inf"} 3
mamps_request_seconds_sum{endpoint="flow"} 1.5
mamps_request_seconds_count{endpoint="flow"} 3
mamps_request_seconds_bucket{le="0.1"} 0
mamps_request_seconds_bucket{le="+Inf"} 1
mamps_request_seconds_sum 2
mamps_request_seconds_count 1
# HELP mamps_build_info Build metadata.
# TYPE mamps_build_info gauge
mamps_build_info{version="abc",go_version="go1.24.0"} 1
`
	if err := CheckPrometheusText(strings.NewReader(doc)); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
}

func TestCheckPrometheusTextRejections(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"sample without TYPE", "x_total 1\n", "no preceding # TYPE"},
		{"sample without HELP", "# TYPE x_total counter\nx_total 1\n", "no preceding # HELP"},
		{"TYPE after samples", "# HELP x H\n# TYPE x gauge\nx 1\n# TYPE x counter\n", "duplicate # TYPE"},
		{"invalid type", "# HELP x H\n# TYPE x histogramm\n", "invalid metric type"},
		{"duplicate series", "# HELP x H\n# TYPE x gauge\nx 1\nx 2\n", "duplicate series"},
		{"negative counter", "# HELP x_total H\n# TYPE x_total counter\nx_total -1\n", "negative"},
		{"bad value", "# HELP x H\n# TYPE x gauge\nx oops\n", "bad sample value"},
		{"unclosed braces", "# HELP x H\n# TYPE x gauge\nx{a=\"b\" 1\n", "unclosed label"},
		{"unquoted label", "# HELP x H\n# TYPE x gauge\nx{a=b} 1\n", "unquoted value"},
		{"bucket without le", "# HELP h H\n# TYPE h histogram\nh_bucket{a=\"b\"} 1\n", "lacks an le label"},
		{"bare histogram sample", "# HELP h H\n# TYPE h histogram\nh 1\n", "bare sample"},
		{
			"non-cumulative buckets",
			"# HELP h H\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			"not cumulative",
		},
		{
			"missing +Inf bucket",
			"# HELP h H\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"+Inf",
		},
		{
			"count disagrees with +Inf",
			"# HELP h H\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
			"_count 3 != +Inf bucket 2",
		},
	}
	for _, tc := range cases {
		err := CheckPrometheusText(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
