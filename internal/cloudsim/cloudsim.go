// Package cloudsim simulates a quantum cloud service: jobs arrive over
// time at a single NISQ backend, a scheduling policy decides which jobs
// run together (multi-programming), and queueing metrics — waiting
// time, turnaround, makespan, throughput, qubit utilization — are
// collected. It substantiates the paper's motivation (§II-E: >120
// queued jobs/day on IBMQ Vigo) and quantifies how much the QuCloud
// scheduler's co-location relieves the queue versus separate execution.
package cloudsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sched"
)

// Policy selects how the backend batches queued jobs.
type Policy int

// Scheduling policies.
const (
	// FIFOSeparate runs every job alone, in arrival order.
	FIFOSeparate Policy = iota
	// FIFOPairs co-locates adjacent queued jobs unconditionally (the
	// "random workloads" baseline).
	FIFOPairs
	// QuCloud batches jobs with the EPST scheduler (Algorithm 4).
	QuCloud
)

func (p Policy) String() string {
	switch p {
	case FIFOSeparate:
		return "fifo-separate"
	case FIFOPairs:
		return "fifo-pairs"
	case QuCloud:
		return "qucloud"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config tunes the simulation.
type Config struct {
	Policy Policy
	// Epsilon, Lookahead, MaxColocate configure the QuCloud policy.
	Epsilon     float64
	Lookahead   int
	MaxColocate int
	// Shots is the number of trials each batch executes (the paper
	// uses 8024).
	Shots int
	// LayerSeconds is the gate-layer duration; ShotOverheadSeconds is
	// the per-shot reset+readout cost; CompileSeconds is charged once
	// per batch. Defaults (see DefaultConfig) approximate
	// superconducting-hardware timescales.
	LayerSeconds        float64
	ShotOverheadSeconds float64
	CompileSeconds      float64
}

// DefaultConfig returns a QuCloud-policy configuration with hardware-
// plausible timing (300 ns layers, 1 ms per-shot overhead).
func DefaultConfig() Config {
	return Config{
		Policy:              QuCloud,
		Epsilon:             0.15,
		Lookahead:           10,
		MaxColocate:         3,
		Shots:               8024,
		LayerSeconds:        300e-9,
		ShotOverheadSeconds: 1e-3,
		CompileSeconds:      2,
	}
}

// Metrics aggregates the simulation outcome.
type Metrics struct {
	// Makespan is the finish time of the last batch (seconds).
	Makespan float64
	// AvgWait is the mean time jobs spent queued before their batch
	// started; AvgTurnaround adds service time.
	AvgWait       float64
	AvgTurnaround float64
	// ThroughputPerHour is jobs completed per hour of makespan.
	ThroughputPerHour float64
	// Batches and TRF report the batching intensity.
	Batches int
	TRF     float64
	// QubitUtilization is the time- and qubit-weighted busy fraction.
	QubitUtilization float64
}

// Run simulates the backend serving the jobs under the configured
// policy and returns the metrics with the per-batch trace.
func Run(d *arch.Device, jobs []Job, cfg Config) (*Metrics, []BatchRecord, error) {
	if len(jobs) == 0 {
		return &Metrics{}, nil, nil
	}
	if cfg.Shots <= 0 {
		return nil, nil, fmt.Errorf("cloudsim: shots must be positive")
	}
	queue := append([]Job(nil), jobs...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrival < queue[j].Arrival })

	comp := core.NewCompiler(d)
	comp.Attempts = 1

	var (
		records []BatchRecord
		now     float64
		waitSum float64
		turnSum float64
		busyQS  float64 // qubit-seconds busy
	)
	for len(queue) > 0 {
		// The backend idles until the next job arrives.
		if queue[0].Arrival > now {
			now = queue[0].Arrival
		}
		// Jobs available for batching: arrived by `now`.
		avail := 0
		for avail < len(queue) && queue[avail].Arrival <= now {
			avail++
		}
		batchJobs := pickBatch(d, queue[:avail], cfg)
		progs := make([]*circuit.Circuit, len(batchJobs))
		ids := make([]int, len(batchJobs))
		for i, j := range batchJobs {
			progs[i] = j.Circ
			ids[i] = j.ID
		}
		strat := core.CDAPXSwap
		if len(progs) == 1 {
			strat = core.Separate
		}
		res, err := comp.Compile(progs, strat)
		if err != nil {
			// Cannot co-locate after all: run the head job alone.
			strat = core.Separate
			batchJobs = batchJobs[:1]
			progs = progs[:1]
			ids = ids[:1]
			res, err = comp.Compile(progs, strat)
			if err != nil {
				return nil, nil, fmt.Errorf("cloudsim: job %d unschedulable: %w", ids[0], err)
			}
		}

		service := cfg.CompileSeconds +
			float64(cfg.Shots)*(cfg.ShotOverheadSeconds+float64(res.Depth)*cfg.LayerSeconds)
		start := now
		finish := start + service
		qubits := 0
		for _, p := range progs {
			qubits += p.NumQubits
		}
		records = append(records, BatchRecord{
			JobIDs:     ids,
			Start:      start,
			Finish:     finish,
			Depth:      res.Depth,
			CNOTs:      res.CNOTs,
			Strategy:   strat,
			QubitsUsed: qubits,
		})
		for _, j := range batchJobs {
			waitSum += start - j.Arrival
			turnSum += finish - j.Arrival
		}
		busyQS += float64(qubits) * service
		now = finish

		inBatch := map[int]bool{}
		for _, id := range ids {
			inBatch[id] = true
		}
		var rest []Job
		for _, j := range queue {
			if !inBatch[j.ID] {
				rest = append(rest, j)
			}
		}
		queue = rest
	}

	m := &Metrics{
		Makespan:      now,
		AvgWait:       waitSum / float64(len(jobs)),
		AvgTurnaround: turnSum / float64(len(jobs)),
		Batches:       len(records),
		TRF:           float64(len(jobs)) / float64(len(records)),
	}
	if now > 0 {
		m.ThroughputPerHour = float64(len(jobs)) / now * 3600
		m.QubitUtilization = busyQS / (float64(d.NumQubits()) * now)
	}
	return m, records, nil
}

// pickBatch selects the next batch from the arrived portion of the
// queue according to the policy. The head job is always included.
func pickBatch(d *arch.Device, arrived []Job, cfg Config) []Job {
	switch cfg.Policy {
	case FIFOSeparate:
		return arrived[:1]
	case FIFOPairs:
		n := 2
		if n > len(arrived) {
			n = len(arrived)
		}
		return append([]Job(nil), arrived[:n]...)
	case QuCloud:
		sjobs := make([]sched.Job, len(arrived))
		for i, j := range arrived {
			sjobs[i] = j.SchedJob()
		}
		scfg := sched.DefaultConfig()
		scfg.Epsilon = cfg.Epsilon
		scfg.Lookahead = cfg.Lookahead
		scfg.MaxColocate = cfg.MaxColocate
		if d.NumQubits() > 20 {
			scfg.Omega = 0.40
		}
		batches, err := sched.Schedule(d, sjobs, scfg)
		if err != nil || len(batches) == 0 {
			return arrived[:1]
		}
		first := batches[0]
		inFirst := map[int]bool{}
		for _, id := range first.JobIDs {
			inFirst[id] = true
		}
		var out []Job
		for _, j := range arrived {
			if inFirst[j.ID] {
				out = append(out, j)
			}
		}
		return out
	}
	return arrived[:1]
}

// PoissonArrivals generates n jobs with exponential inter-arrival times
// of the given mean (seconds), cycling through the provided circuits.
// The stream is deterministic in the seed.
func PoissonArrivals(circs []*circuit.Circuit, n int, meanGap float64, seed int64) []Job {
	jobs := make([]Job, n)
	t := 0.0
	state := uint64(seed)*2654435761 + 1013904223
	next := func() float64 {
		// xorshift64* uniform in (0,1)
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		u := float64(state*0x2545F4914F6CDD1D>>11) / float64(uint64(1)<<53)
		if u <= 0 {
			u = 0.5
		}
		return u
	}
	for i := 0; i < n; i++ {
		// Inverse-CDF exponential sample.
		u := next()
		t += -meanGap * math.Log(u)
		jobs[i] = Job{ID: i, Circ: circs[i%len(circs)], Arrival: t}
	}
	return jobs
}
