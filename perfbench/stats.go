package main

import (
	"math"
	"sort"
)

// tailQuantile is the percentile rule every reported tail uses: the
// highest quantile with at least ten samples beyond it, capped at p99.
// With n samples that is min(0.99, 1-10/n); below eleven samples no
// quantile has ten beyond it and the rule falls back to the maximum
// (ok is false so callers can say so).
func tailQuantile(n int) (q float64, ok bool) {
	if n < 11 {
		return 1, false
	}
	return math.Min(0.99, 1-10/float64(n)), true
}

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least a q share of the samples at or below it. +Inf
// samples (requests that missed entirely) sort last. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q*n from rounding up past an exact rank.
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

// tail applies the percentile rule: it returns the rule's quantile of
// xs and the quantile it used.
func tail(xs []float64) (value, q float64) {
	q, _ = tailQuantile(len(xs))
	return quantile(xs, q), q
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// jobOutcome is what the generator learned about one submission.
type jobOutcome struct {
	// Refused is set when the front end answered the submit with a
	// non-2xx status (429 backpressure, 503 drain, ...) or the request
	// itself failed.
	Refused bool
	// Accepted jobs then end in exactly one of Done, Failed or neither
	// (still unfinished when the bounded drain gave up).
	Done, Failed bool
	// Latency is seconds from the due send time to the terminal state;
	// meaningful only when Done or Failed.
	Latency float64
}

// accounting is the failure accounting of one measured phase.
type accounting struct {
	Attempted, Accepted, Refused, Done, Failed, Unfinished int
	// Latencies has one entry per attempted job: the due-to-terminal
	// time of done jobs, +Inf for every refused, failed or unfinished
	// job, which therefore misses any latency limit.
	Latencies []float64
}

func account(jobs []jobOutcome) accounting {
	var a accounting
	for _, j := range jobs {
		a.Attempted++
		lat := math.Inf(1)
		switch {
		case j.Refused:
			a.Refused++
		case j.Done:
			a.Accepted++
			a.Done++
			lat = j.Latency
		case j.Failed:
			a.Accepted++
			a.Failed++
		default:
			a.Accepted++
			a.Unfinished++
		}
		a.Latencies = append(a.Latencies, lat)
	}
	return a
}

// failedFrac is jobs failed or refused over jobs attempted.
func (a accounting) failedFrac() float64 {
	if a.Attempted == 0 {
		return 0
	}
	return float64(a.Failed+a.Refused) / float64(a.Attempted)
}

// meetsSLO reports whether the phase's tail latency, with every miss
// counted as +Inf, stays within limit seconds.
func (a accounting) meetsSLO(limit float64) bool {
	if len(a.Latencies) == 0 {
		return false
	}
	v, _ := tail(a.Latencies)
	return v <= limit
}
