package sim

// The Monte-Carlo loop shared by both simulation engines. Everything
// but three engine-specific corners is one code path: validation,
// crosstalk serialization, the (program, logical) measurement plan, the
// sharded trial loop with readout flips, and the shard-order reduction.
// The corners are the statevector's qubit limit, how the noiseless
// reference reads its correct bits (referenceBits), and the per-shard
// trial state (trialState).

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/pool"
	"repro/internal/router"
)

// maxStatevectorQubits bounds the dense statevector (2^24 amplitudes).
const maxStatevectorQubits = 24

// trialState is the simulator state one shard reuses across its trials.
type trialState interface {
	// trial resets the state and runs one noisy trial of cp.
	trial(cp *compiledProgram, rng *rand.Rand)
	// measure reads compact qubit q, drawing a random outcome from rng.
	measure(q int, rng *rand.Rand) int
}

func (s *state) trial(cp *compiledProgram, rng *rand.Rand) {
	s.reset()
	cp.runStatevector(s, rng)
}

// tableauTrial is the packed stabilizer tableau as a trialState: random
// measurement outcomes are fair coin flips from the trial's RNG.
type tableauTrial struct{ tb *ptab }

func (t tableauTrial) trial(cp *compiledProgram, rng *rand.Rand) {
	t.tb.reset()
	cp.runTableau(t.tb, rng)
}

func (t tableauTrial) measure(q int, rng *rand.Rand) int {
	return t.tb.measure(q, func() bool { return rng.Intn(2) == 1 })
}

func newTrialState(engine engineKind, nq int) trialState {
	if engine == engineTableau {
		return tableauTrial{newPtab(nq)}
	}
	return newState(nq)
}

// referenceBits runs the noiseless reference and returns the reader of
// each measured qubit's correct bit. The statevector engine reads the
// modal basis state; the tableau engine measures sequentially with
// random outcomes resolved to 0, so it must be called in measurement
// plan order. Neither reference draws from an RNG.
func referenceBits(engine engineKind, cp *compiledProgram) func(q int) int {
	if engine == engineTableau {
		ref := newPtab(cp.nq)
		cp.runTableauNoiseless(ref)
		return func(q int) int { return ref.measure(q, func() bool { return false }) }
	}
	ref := newState(cp.nq)
	cp.runStatevectorNoiseless(ref)
	modal := ref.modal()
	return func(q int) int { return (modal >> uint(q)) & 1 }
}

// measurementOrder returns the schedule's measurements sorted by
// (program, logical qubit), rejecting measurements of unknown programs
// and programs that measure nothing (whose success would be vacuous).
func measurementOrder(measures []router.Measurement, progs []*circuit.Circuit) ([]router.Measurement, error) {
	counts := make([]int, len(progs))
	for _, m := range measures {
		if m.Program < 0 || m.Program >= len(progs) {
			return nil, fmt.Errorf("sim: measurement for unknown program %d", m.Program)
		}
		counts[m.Program]++
	}
	for p, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("sim: program %d (%s) has no measurements", p, progs[p].Name)
		}
	}
	order := append([]router.Measurement(nil), measures...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Program != order[j].Program {
			return order[i].Program < order[j].Program
		}
		return order[i].Logical < order[j].Logical
	})
	return order, nil
}

// measPoint is one measurement with its trial-invariant inputs
// resolved: the owning program, the compact qubit index, the qubit's
// readout-error rate, and the reference run's correct bit.
type measPoint struct {
	prog    int
	compact int
	readout float64
	correct int
}

// simulate is the Monte-Carlo loop behind SimulateScheduleCtx and
// SimulateScheduleCliffordCtx.
func simulate(ctx context.Context, engine engineKind, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	lay := layerize(sched)
	if noise.Enabled && noise.SerializeCrosstalk {
		lay = serializeCrosstalk(d, lay)
	}
	if engine == engineStatevector && len(lay.active) > maxStatevectorQubits {
		return nil, fmt.Errorf("sim: %d active qubits exceed the statevector limit", len(lay.active))
	}
	order, err := measurementOrder(lay.measures, progs)
	if err != nil {
		return nil, err
	}
	// Lower the schedule once: compact indices, folded error rates, 1q
	// matrices, and idle lists are trial-invariant (see hotpath.go).
	// For the tableau engine this also rejects non-Clifford gates.
	cp, err := compileLayers(d, lay, noise, engine)
	if err != nil {
		return nil, err
	}

	// The noiseless reference fixes each measurement's correct bit; the
	// plan resolves every measurement's trial-invariant inputs once.
	ref := referenceBits(engine, cp)
	plan := make([]measPoint, len(order))
	bufs := make([][]byte, len(progs))
	for i, m := range order {
		c := lay.compact[m.Phys]
		plan[i] = measPoint{prog: m.Program, compact: c, readout: d.ReadoutErr[m.Phys], correct: ref(c)}
		bufs[m.Program] = append(bufs[m.Program], byte('0'+plan[i].correct))
	}
	doReadout := noise.Enabled && noise.Readout

	// Shard the trial budget: shard s runs trials [lo, hi) with its own
	// counter-derived RNG, so per-shard counts do not depend on how the
	// shards are spread over goroutines (see shard.go). Each shard
	// reuses one trial state across its trials.
	shards := numShards(trials)
	workers = shardWorkers(workers, trials, cp.trialWork)
	perShard := make([][]int, shards)
	ferr := pool.ForEach(ctx, shards, workers, func(s int) error {
		rng := rand.New(rand.NewSource(shardSeed(seed, s)))
		lo, hi := shardRange(s, trials)
		st := newTrialState(engine, cp.nq)
		succ := make([]int, len(progs))
		ok := make([]bool, len(progs))
		for trial := lo; trial < hi; trial++ {
			st.trial(cp, rng)
			for p := range ok {
				ok[p] = true
			}
			for i := range plan {
				mp := &plan[i]
				b := st.measure(mp.compact, rng)
				if doReadout && rng.Float64() < mp.readout {
					b ^= 1
				}
				if b != mp.correct {
					ok[mp.prog] = false
				}
			}
			for p, v := range ok {
				if v {
					succ[p]++
				}
			}
		}
		perShard[s] = succ
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	// Reduce in shard-index order (integer sums are order-independent,
	// but the fixed order keeps the reduction obviously deterministic).
	out := &Outcome{PST: make([]float64, len(progs)), Correct: make([]string, len(progs)), Trials: trials}
	for p := range progs {
		succ := 0
		for s := 0; s < shards; s++ {
			succ += perShard[s][p]
		}
		out.PST[p] = float64(succ) / float64(trials)
		out.Correct[p] = string(bufs[p])
	}
	return out, nil
}
