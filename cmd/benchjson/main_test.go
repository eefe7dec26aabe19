package main

import (
	"reflect"
	"testing"
)

// TestMedians: repeated runs of a benchmark fold into one entry per
// name, in order of first appearance, carrying each metric's median.
func TestMedians(t *testing.T) {
	run := func(name string, ns, allocs float64) Benchmark {
		return Benchmark{Name: name, Metrics: []Metric{{"ns/op", ns}, {"allocs/op", allocs}}}
	}
	got := medians([]Benchmark{
		run("BenchmarkA", 30, 2), run("BenchmarkB", 7, 0),
		run("BenchmarkA", 10, 2), run("BenchmarkB", 5, 0),
		run("BenchmarkA", 20, 2),
	})
	want := []Benchmark{
		{Name: "BenchmarkA", Metrics: []Metric{{"ns/op", 20}, {"allocs/op", 2}}},
		{Name: "BenchmarkB", Metrics: []Metric{{"ns/op", 6}, {"allocs/op", 0}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("medians = %+v, want %+v", got, want)
	}
}
