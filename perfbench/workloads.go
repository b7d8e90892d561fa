package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

// Paper defaults every workload runs the daemon at (Algorithm 4 and
// the service's static policy): lookahead N, epsilon, batch cap.
const (
	backends    = "ibmq16,tokyo"
	lookahead   = 10
	epsilon     = 0.15
	maxColocate = 3
	// sloSeconds is the latency limit on the tail percentile a rate
	// step must meet.
	sloSeconds = 2.0
	// queueSize keeps the admission queue (and every tenant's weighted
	// share of it) far above any depth the workloads build, so no
	// workload below its knee sees a 429.
	queueSize = 4096
)

// tenantDef is one bearer-key tenant of the multi-tenant workload.
type tenantDef struct {
	ID     string  `json:"id"`
	Key    string  `json:"key"`
	Weight float64 `json:"weight"`
}

// program is one submission's payload.
type program struct {
	Name string
	QASM string
}

// workload is one traffic mix. Its rationale and the layer predictions
// it carries are in README.md; Why repeats the one-line rationale that
// BENCHMARK.json records.
type workload struct {
	Name string
	Why  string
	// Trials is the daemon's Monte-Carlo budget per batch.
	Trials int
	// Rates are the open-loop offered rates (jobs/s), one phase each,
	// swept in order; the sweep stops at the first step missing the
	// SLO.
	Rates []float64
	// StepShare is each rate step's share of the measured seconds.
	StepShare []float64
	// LatencyStep is the step the latency metrics are read at.
	LatencyStep int
	// Tenants, when set, starts the daemon in tenant mode; each
	// tenant's offered rate is its weight's share of the phase rate.
	Tenants []tenantDef
	// WAL starts the daemon with a fresh -data-dir.
	WAL bool
	// ResendEvery resends every n-th submission with its idempotency
	// key (0 never); StatusReads gives each job one GET /v1/jobs/{id}.
	ResendEvery int
	StatusReads bool
	// next returns the i-th program of the stream.
	next func(rng *rand.Rand, seed int64, i int) program
}

var workloads = []*workload{
	{
		Name:   "tiny-poisson",
		Why:    "Open-loop Poisson sweep of Table I tiny programs at 8024 trials: cache-hot, simulation-bound; the knee shows where window filling and joint-statevector co-location collapse throughput.",
		Trials: 8024,
		// The middle step carries most of the run, so its tail has the
		// most samples; the top step only has to show the collapse.
		Rates:       []float64{2, 4, 64},
		StepShare:   []float64{0.1, 0.8, 0.1},
		LatencyStep: 1,
		next:        drawFrom(tinyPool),
	},
	{
		Name:      "unique-tenants-wal",
		Why:       "Open loop below the knee at 512 trials, 4 weighted tenants, WAL on, all programs distinct: every compile misses the cache (CDAP+GWEF+X-SWAP), every admission hits the WAL, reads share the mutex.",
		Trials:    512,
		Rates:     []float64{10},
		StepShare: []float64{1},
		Tenants: []tenantDef{
			{ID: "t1", Key: "key-t1", Weight: 4},
			{ID: "t2", Key: "key-t2", Weight: 2},
			{ID: "t3", Key: "key-t3", Weight: 1},
			{ID: "t4", Key: "key-t4", Weight: 1},
		},
		WAL:         true,
		ResendEvery: 10,
		StatusReads: true,
		next:        uniqueSmall,
	},
}

// drain bounds how long a step waits for its jobs after its last send;
// jobs still unfinished then count as misses.
const drain = time.Duration(sloSeconds+1) * time.Second

// stepDuration is rate step k's share of the measured time.
func (w *workload) stepDuration(k int, total time.Duration) time.Duration {
	return time.Duration(w.StepShare[k] * float64(total))
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// The program pool of the Table I tiny class, built once.
var (
	poolsOnce sync.Once
	tinyPool  = new([]program)
)

func buildPools() {
	for _, n := range nisqbench.ByClass(nisqbench.Tiny) {
		*tinyPool = append(*tinyPool, program{Name: n, QASM: circuit.QASMString(nisqbench.MustGet(n))})
	}
}

func drawFrom(pool *[]program) func(*rand.Rand, int64, int) program {
	return func(rng *rand.Rand, _ int64, _ int) program {
		poolsOnce.Do(buildPools)
		return (*pool)[rng.Intn(len(*pool))]
	}
}

// uniqueSmall synthesizes a distinct NCT program of Table I small size
// (3-5 qubits, 11-22 CNOTs) whose name, and so whose gate sequence, is
// derived from the seed and the job index.
func uniqueSmall(rng *rand.Rand, seed int64, i int) program {
	name := "u" + strconv.FormatInt(seed, 36) + "-" + strconv.Itoa(i)
	c := nisqbench.SyntheticRevLib(name, 3+rng.Intn(3), 11+rng.Intn(12))
	return program{Name: name, QASM: circuit.QASMString(c)}
}

// jobSpec is one scheduled submission.
type jobSpec struct {
	Index  int
	Prog   program
	Tenant int           // index into workload.Tenants; -1 in open mode
	Offset time.Duration // due time relative to the phase start (open loop)
	Idem   string        // Idempotency-Key; empty for none
	Resend bool
	// ReadDelay is when, after the submit, the job's one status read is
	// made: seeded and spread over a second, so reads land at random
	// points of the daemon's work rather than on the job's own claim.
	ReadDelay time.Duration
}

// phaseRNG derives a phase's generator from the workload seed.
func phaseRNG(seed int64, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + 1))
}

// openSchedule lays out one open-loop phase of duration d at the given
// total rate. Each tenant's stream is a Poisson process conditioned on
// its arrival count (round(rate·share·d), at least one, uniform arrival
// times), so
// the offered load is exact while the gaps stay exponential-like; the
// tenant streams merge in due order. base numbers the jobs across
// phases.
func (w *workload) openSchedule(seed int64, phase, base int, rate float64, d time.Duration) []jobSpec {
	rng := phaseRNG(seed, phase)
	type stream struct {
		tenant int
		share  float64
	}
	streams := []stream{{tenant: -1, share: 1}}
	if len(w.Tenants) > 0 {
		total := 0.0
		for _, t := range w.Tenants {
			total += t.Weight
		}
		streams = streams[:0]
		for i, t := range w.Tenants {
			streams = append(streams, stream{tenant: i, share: t.Weight / total})
		}
	}
	var jobs []jobSpec
	for _, s := range streams {
		// At least one arrival per stream, so even a seconds-long smoke
		// run has a job in every step.
		n := max(1, int(rate*s.share*d.Seconds()+0.5))
		for range n {
			jobs = append(jobs, jobSpec{Tenant: s.tenant, Offset: time.Duration(rng.Int63n(int64(d)))})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Offset < jobs[b].Offset })
	for i := range jobs {
		w.fill(&jobs[i], rng, seed, base+i)
	}
	return jobs
}

func (w *workload) fill(j *jobSpec, rng *rand.Rand, seed int64, i int) {
	j.Index = i
	j.Prog = w.next(rng, seed, i)
	if len(w.Tenants) > 0 {
		j.Idem = "idem-" + strconv.FormatInt(seed, 36) + "-" + strconv.Itoa(i)
		j.Resend = w.ResendEvery > 0 && i%w.ResendEvery == w.ResendEvery-1
	}
	if w.StatusReads {
		j.ReadDelay = time.Duration(100+rng.Intn(900)) * time.Millisecond
	}
}
