// Package quos prototypes the adaptive runtime the paper's QuOS vision
// sketches (§II-E, §III): a feedback controller around the EPST
// scheduler. The static scheduler trusts its estimated fidelity; QuOS
// additionally observes each batch's *achieved* fidelity and adapts the
// co-location threshold epsilon on-the-fly — tightening it after
// fidelity regressions (reverting toward separate execution, which the
// paper notes static systems cannot do) and relaxing it when
// multi-programming proves harmless.
package quos

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config tunes the adaptive controller.
type Config struct {
	// InitialEpsilon seeds the co-location threshold.
	InitialEpsilon float64
	// MinEpsilon and MaxEpsilon bound the adaptation.
	MinEpsilon, MaxEpsilon float64
	// Target is the tolerated achieved-fidelity loss per batch:
	// observed PST may fall below the separate-execution estimate by
	// this fraction before the controller reacts.
	Target float64
	// Step is the multiplicative adaptation: epsilon /= (1+Step) on
	// violation, *= (1+Step/2) on success (asymmetric, like congestion
	// control: back off fast, probe slowly).
	Step float64
	// Trials is the Monte-Carlo budget per batch observation.
	Trials int
	// Lookahead and MaxColocate pass through to the scheduler.
	Lookahead   int
	MaxColocate int
}

// DefaultConfig returns a controller with congestion-control-style
// dynamics around the paper's ε = 0.15 operating point.
func DefaultConfig() Config {
	return Config{
		InitialEpsilon: 0.15,
		MinEpsilon:     0.01,
		MaxEpsilon:     0.5,
		Target:         0.12,
		Step:           0.5,
		Trials:         400,
		Lookahead:      10,
		MaxColocate:    3,
	}
}

// Controller is the epsilon-adaptation rule of the QuOS runtime,
// factored out of Run so that long-running services (internal/service)
// can feed it live batch observations. A Controller is not safe for
// concurrent use; give each backend worker its own.
type Controller struct {
	cfg Config
	eps float64
}

// NewController returns a controller seeded at cfg.InitialEpsilon.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg, eps: cfg.InitialEpsilon}
}

// Epsilon is the current co-location threshold to schedule with.
func (c *Controller) Epsilon() float64 { return c.eps }

// Observe feeds one executed batch: whether it co-located programs,
// the achieved average PST, and the separate-execution estimate. It
// adapts epsilon (back off fast on violation, probe slowly on success)
// and reports whether the batch violated the fidelity target.
func (c *Controller) Observe(colocated bool, avgPST, separateEstimate float64) bool {
	violated := colocated && avgPST < separateEstimate*(1-c.cfg.Target)
	if violated {
		c.eps /= 1 + c.cfg.Step
		if c.eps < c.cfg.MinEpsilon {
			c.eps = c.cfg.MinEpsilon
		}
	} else if colocated {
		c.eps *= 1 + c.cfg.Step/2
		if c.eps > c.cfg.MaxEpsilon {
			c.eps = c.cfg.MaxEpsilon
		}
	}
	return violated
}

// BatchReport records one executed batch and the controller state.
type BatchReport struct {
	JobIDs []int
	// AvgPST is the observed batch fidelity (0..1); SeparateEstimate
	// is the EPST-based expectation had the jobs run alone.
	AvgPST           float64
	SeparateEstimate float64
	// EpsilonAfter is the threshold after adaptation.
	EpsilonAfter float64
	Violated     bool
}

// Result is the full adaptive run.
type Result struct {
	Reports []BatchReport
	// AvgPST is the mean observed fidelity over all jobs; TRF the
	// throughput gain.
	AvgPST float64
	TRF    float64
	// FinalEpsilon is the threshold the controller converged to.
	FinalEpsilon float64
}

// SeparateEstimate is the expectation had the jobs run alone: each
// program's PST estimated analytically (ESP) from a separate
// compilation, averaged over the programs. Long-running services use
// it as the reference the Controller compares achieved fidelity to.
func SeparateEstimate(comp *core.Compiler, progs []*circuit.Circuit, noise sim.NoiseModel) (float64, error) {
	return SeparateEstimateContext(context.Background(), comp, progs, noise)
}

// SeparateEstimateContext is SeparateEstimate under a caller context,
// so a service's per-batch deadline also bounds the reference
// compilation the adaptive controller compares against.
func SeparateEstimateContext(ctx context.Context, comp *core.Compiler, progs []*circuit.Circuit, noise sim.NoiseModel) (float64, error) {
	sepRes, err := comp.CompileContext(ctx, progs, core.Separate)
	if err != nil {
		return 0, err
	}
	est := 0.0
	for i := range progs {
		esp, err := sim.AnalyticESP(comp.Device, sepRes.Schedules[i], 1, noise.IdleErrPerLayer)
		if err != nil {
			return 0, err
		}
		est += esp.PerProgram[0]
	}
	return est / float64(len(progs)), nil
}

// Run processes the queue adaptively: schedule the next batch with the
// current epsilon, compile and "execute" it (Monte-Carlo simulation
// stands in for hardware), compare the observed fidelity against the
// separate-execution expectation, and adapt epsilon.
func Run(d *arch.Device, jobs []sched.Job, cfg Config, seed int64) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("quos: trials must be positive")
	}
	if len(jobs) == 0 {
		return &Result{FinalEpsilon: cfg.InitialEpsilon}, nil
	}
	ctrl := NewController(cfg)
	queue := append([]sched.Job(nil), jobs...)
	comp := core.NewCompiler(d)
	comp.Attempts = 2
	noise := sim.DefaultNoise()

	var (
		reports  []BatchReport
		pstSum   float64
		pstCount int
	)
	for len(queue) > 0 {
		scfg := sched.DefaultConfig()
		scfg.Epsilon = ctrl.Epsilon()
		scfg.Lookahead = cfg.Lookahead
		scfg.MaxColocate = cfg.MaxColocate
		if d.NumQubits() > 20 {
			scfg.Omega = 0.40
		}
		batch, err := sched.Next(d, queue, scfg)
		if err != nil {
			return nil, fmt.Errorf("quos: %w", err)
		}
		byID := map[int]*circuit.Circuit{}
		for _, j := range queue {
			byID[j.ID] = j.Circ
		}
		progs := make([]*circuit.Circuit, len(batch.JobIDs))
		for i, id := range batch.JobIDs {
			progs[i] = byID[id]
		}
		strat := core.CDAPXSwap
		if len(progs) == 1 {
			strat = core.Separate
		}
		res, err := comp.Compile(progs, strat)
		if err != nil {
			res, err = comp.Compile(progs, core.Separate)
			if err != nil {
				return nil, fmt.Errorf("quos: job %d unschedulable: %w", batch.JobIDs[0], err)
			}
		}
		psts, err := comp.Simulate(res, cfg.Trials, seed+int64(len(reports)), noise)
		if err != nil {
			return nil, err
		}
		avg := 0.0
		for _, p := range psts {
			avg += p
			pstSum += p
			pstCount++
		}
		avg /= float64(len(psts))

		sepEst, err := SeparateEstimate(comp, progs, noise)
		if err != nil {
			return nil, err
		}

		violated := ctrl.Observe(len(progs) > 1, avg, sepEst)
		reports = append(reports, BatchReport{
			JobIDs:           batch.JobIDs,
			AvgPST:           avg,
			SeparateEstimate: sepEst,
			EpsilonAfter:     ctrl.Epsilon(),
			Violated:         violated,
		})

		inBatch := map[int]bool{}
		for _, id := range batch.JobIDs {
			inBatch[id] = true
		}
		var rest []sched.Job
		for _, j := range queue {
			if !inBatch[j.ID] {
				rest = append(rest, j)
			}
		}
		queue = rest
	}
	out := &Result{
		Reports:      reports,
		FinalEpsilon: ctrl.Epsilon(),
		TRF:          float64(len(jobs)) / float64(len(reports)),
	}
	if pstCount > 0 {
		out.AvgPST = pstSum / float64(pstCount)
	}
	return out, nil
}
