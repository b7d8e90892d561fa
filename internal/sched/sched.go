// Package sched implements the paper's compilation task scheduler
// (Algorithm 4): it batches queued quantum programs for multi-programming
// when the estimated fidelity loss stays under a threshold. Fidelity is
// estimated with EPST (Equation 4) on the regions the CDAP partitioner
// would allocate; the throughput gain is reported as the Trial Reduction
// Factor (TRF).
package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Job is one queued compilation task.
type Job struct {
	// ID is the caller's identifier (unique within a queue).
	ID int
	// Circ is the program to run.
	Circ *circuit.Circuit
}

// Batch is a set of jobs scheduled to run concurrently; a singleton
// batch is a separate execution.
type Batch struct {
	JobIDs []int
}

// Config tunes Algorithm 4.
type Config struct {
	// Epsilon is the maximum tolerated EPST violation
	// 1 - coEPST/sepEPST for every job in a batch.
	Epsilon float64
	// Lookahead is N: only the first N queued jobs are considered when
	// extending a batch (10 in the paper).
	Lookahead int
	// MaxColocate bounds the batch size (the paper's
	// max_colocate_num; it "supports more than two programs").
	MaxColocate int
	// Omega is the CDAP reward weight for the hierarchy tree.
	Omega float64
}

// DefaultConfig mirrors the paper's defaults with the knee ω for IBMQ16.
func DefaultConfig() Config {
	return Config{Epsilon: 0.15, Lookahead: 10, MaxColocate: 3, Omega: 0.95}
}

// SeparateEPST is a program's best-case EPST: the EPST on the region
// CDAP allocates when the program runs alone.
func SeparateEPST(d *arch.Device, tree *community.Tree, p *circuit.Circuit) (float64, error) {
	res, err := partition.CDAP(d, tree, []*circuit.Circuit{p})
	if err != nil {
		return 0, err
	}
	return d.EPST(res.Assignments[0].Region, p.RawCNOTCount(), p.Gate1Count(), p.NumQubits), nil
}

// ColocatedEPST partitions the chip among all programs with CDAP and
// returns each program's EPST on its allocated region. On devices with
// a pairwise crosstalk matrix, each program's estimate charges its
// region's links their worst conditional error against every other
// program's links (EPSTUnder), so the scheduler's epsilon test rejects
// co-locations whose regions interfere even when each region is fine
// in isolation. Without a matrix the estimates are unchanged.
func ColocatedEPST(d *arch.Device, tree *community.Tree, progs []*circuit.Circuit) ([]float64, error) {
	res, err := partition.CDAP(d, tree, progs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(progs))
	for i, a := range res.Assignments {
		var busy []graph.Edge
		if d.HasCrosstalk() {
			for j, b := range res.Assignments {
				if j != i {
					busy = append(busy, d.Coupling.InducedEdges(b.Region)...)
				}
			}
		}
		p := progs[i]
		out[i] = d.EPSTUnder(a.Region, p.RawCNOTCount(), p.Gate1Count(), p.NumQubits, busy)
	}
	return out, nil
}

// Schedule runs Algorithm 4 over the job queue and returns the batches
// in submission order. Jobs that cannot be co-located within the
// violation threshold run separately. An error is returned only when a
// job cannot be placed at all (more qubits than the chip has).
//
// Schedule is deterministic (it draws no randomness) and safe to call
// from concurrent goroutines as long as each call uses its own queue
// slice; the device and circuits are only read.
func Schedule(d *arch.Device, jobs []Job, cfg Config) ([]Batch, error) {
	s := newScheduler(d, cfg)
	queue := append([]Job(nil), jobs...)
	var batches []Batch
	for len(queue) > 0 {
		b, err := s.next(queue)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
		inBatch := make(map[int]bool, len(b.JobIDs))
		for _, id := range b.JobIDs {
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
	return batches, nil
}

// Next returns the batch Algorithm 4 forms around the head of the
// queue: whenever Schedule succeeds, Next equals its first batch, but
// it estimates nothing for the batches after it. A serving loop that
// claims one batch at a time calls Next instead of Schedule. It errors
// only when the head job cannot run even alone; an empty queue yields
// an empty batch.
func Next(d *arch.Device, jobs []Job, cfg Config) (Batch, error) {
	if len(jobs) == 0 {
		return Batch{}, nil
	}
	return newScheduler(d, cfg).next(jobs)
}

// scheduler is one Algorithm 4 pass: the device, its hierarchy tree,
// the normalized config, and the separate-EPST estimates memoized by
// job ID across every batch the pass forms.
type scheduler struct {
	d        *arch.Device
	tree     *community.Tree
	cfg      Config
	sepCache map[int]float64
}

func newScheduler(d *arch.Device, cfg Config) *scheduler {
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 10
	}
	if cfg.MaxColocate <= 0 {
		cfg.MaxColocate = 2
	}
	return &scheduler{d: d, tree: community.BuildCached(d, cfg.Omega), cfg: cfg, sepCache: map[int]float64{}}
}

func (s *scheduler) sepEPST(j Job) (float64, error) {
	if v, ok := s.sepCache[j.ID]; ok {
		return v, nil
	}
	v, err := SeparateEPST(s.d, s.tree, j.Circ)
	if err != nil {
		return 0, fmt.Errorf("sched: job %d cannot run even alone: %w", j.ID, err)
	}
	s.sepCache[j.ID] = v
	return v, nil
}

// next forms the batch headed by queue[0]: each later job within the
// lookahead window joins, in queue order, while the batch stays below
// MaxColocate and every member keeps its EPST violation within Epsilon.
func (s *scheduler) next(queue []Job) (Batch, error) {
	cur := []Job{queue[0]}
	if _, err := s.sepEPST(queue[0]); err != nil {
		return Batch{}, err
	}
	for idx := 1; idx < len(queue) && idx < s.cfg.Lookahead && len(cur) < s.cfg.MaxColocate; idx++ {
		trial := append(append([]Job(nil), cur...), queue[idx])
		if s.violationOK(trial) {
			cur = trial
		}
	}
	ids := make([]int, len(cur))
	for i, j := range cur {
		ids[i] = j.ID
	}
	return Batch{JobIDs: ids}, nil
}

// violationOK reports whether every job in the trial batch keeps its
// EPST violation within epsilon.
func (s *scheduler) violationOK(trial []Job) bool {
	progs := make([]*circuit.Circuit, len(trial))
	for i, j := range trial {
		progs[i] = j.Circ
	}
	co, err := ColocatedEPST(s.d, s.tree, progs)
	if err != nil {
		return false
	}
	for i, j := range trial {
		sep, err := s.sepEPST(j)
		if err != nil || fp.Zero(sep) {
			return false
		}
		if violation := 1 - co[i]/sep; violation > s.cfg.Epsilon {
			return false
		}
	}
	return true
}

// TRF is the Trial Reduction Factor: the ratio of executions needed
// separately (one per job) to the executions needed with the batching
// (one per batch). Separate execution has TRF 1; perfect pairing has 2.
func TRF(numJobs int, batches []Batch) float64 {
	if len(batches) == 0 {
		return 0
	}
	return float64(numJobs) / float64(len(batches))
}

// RandomPairs is the random-workload baseline of §V-B3: it shuffles the
// queue with the given seed and pairs consecutive jobs unconditionally
// (the last job runs alone when the count is odd). It is a convenience
// wrapper over RandomPairsRand.
func RandomPairs(jobs []Job, seed int64) []Batch {
	return RandomPairsRand(jobs, rand.New(rand.NewSource(seed)))
}

// RandomPairsRand is RandomPairs with a caller-supplied random source.
// Concurrent schedulers (e.g. one worker goroutine per backend in
// internal/service) must each own their *rand.Rand: nothing in this
// package touches the global math/rand state, so schedules stay
// deterministic and race-free as long as each worker threads its own
// rng through.
func RandomPairsRand(jobs []Job, rng *rand.Rand) []Batch {
	order := rng.Perm(len(jobs))
	var batches []Batch
	for i := 0; i < len(order); i += 2 {
		b := Batch{JobIDs: []int{jobs[order[i]].ID}}
		if i+1 < len(order) {
			b.JobIDs = append(b.JobIDs, jobs[order[i+1]].ID)
		}
		batches = append(batches, b)
	}
	return batches
}

// SeparateAll is the separate-execution baseline: one batch per job.
func SeparateAll(jobs []Job) []Batch {
	out := make([]Batch, len(jobs))
	for i, j := range jobs {
		out[i] = Batch{JobIDs: []int{j.ID}}
	}
	return out
}
