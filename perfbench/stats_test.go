package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 1, false},
		{10, 1, false},
		{11, 1 - 10.0/11, true},
		{100, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{5000, 0.99, true}, // capped at p99
	} {
		q, ok := tailQuantile(tc.n)
		if ok != tc.ok || math.Abs(q-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
}

// The rule's percentile leaves exactly ten samples above it.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 57, 100, 333, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so quantile must sort
		}
		v, _ := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if want := min(10, n/100); n < 1000 && beyond != 10 || n >= 1000 && beyond < want {
			t.Errorf("n=%d: tail %v has %d samples beyond it", n, v, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {1, 5}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestFailureAccounting(t *testing.T) {
	jobs := []jobOutcome{
		{Done: true, Latency: 0.1},
		{Done: true, Latency: 0.2},
		{Failed: true, Latency: 0.05},
		{Refused: true},
		{}, // accepted, never finished
	}
	a := account(jobs)
	if a.Attempted != 5 || a.Accepted != 4 || a.Done != 2 || a.Failed != 1 || a.Refused != 1 || a.Unfinished != 1 {
		t.Fatalf("accounting = %+v", a)
	}
	if got := a.failedFrac(); got != 2.0/5 {
		t.Errorf("failedFrac = %v, want 0.4 (failed + refused over attempted)", got)
	}
	inf := 0
	for _, l := range a.Latencies {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 3 {
		t.Errorf("%d misses recorded as +Inf, want 3 (failed, refused, unfinished)", inf)
	}
}

func TestSLOCountsMisses(t *testing.T) {
	var ok []jobOutcome
	for range 100 {
		ok = append(ok, jobOutcome{Done: true, Latency: 0.5})
	}
	if !account(ok).meetsSLO(sloSeconds) {
		t.Fatal("all-fast phase should meet the SLO")
	}
	// Ten misses in 100 stay beyond the rule's p90; eleven reach it.
	withMisses := func(n int) []jobOutcome {
		out := append([]jobOutcome(nil), ok[:100-n]...)
		for i := range n {
			out = append(out, []jobOutcome{{Refused: true}, {Failed: true}, {}}[i%3])
		}
		return out
	}
	if !account(withMisses(10)).meetsSLO(sloSeconds) {
		t.Error("10 misses in 100 should leave the p90 tail within the SLO")
	}
	if account(withMisses(11)).meetsSLO(sloSeconds) {
		t.Error("11 misses in 100 must break the SLO")
	}
	if (accounting{}).meetsSLO(sloSeconds) {
		t.Error("an empty phase must not pass")
	}
}

func TestGrowingBacklog(t *testing.T) {
	start := time.Unix(1700000000, 0)
	var flat, grow []depthSample
	for i := range 40 {
		at := start.Add(time.Duration(100*i) * time.Millisecond)
		flat = append(flat, depthSample{At: at, Depths: map[string]int{"a": 3, "b": 2}})
		grow = append(grow, depthSample{At: at, Depths: map[string]int{"a": 2 * i, "b": i}})
	}
	end := start.Add(3900 * time.Millisecond)
	if growing(flat, start, end) {
		t.Error("flat queue reported as growing")
	}
	if !growing(grow, start, end) {
		t.Error("growing queue not detected")
	}
}
