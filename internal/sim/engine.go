package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// NoiseModel configures the Monte-Carlo error channels.
type NoiseModel struct {
	// Enabled turns all stochastic channels on; when false the
	// simulation is noiseless (used to find the correct outcome).
	Enabled bool
	// IdleErrPerLayer is the per-layer probability that an idle, not
	// yet measured qubit suffers a decoherence event (reset
	// trajectory). It models the coherence error that grows when a
	// short program waits for a long co-located one.
	IdleErrPerLayer float64
	// CrosstalkFactor scales up a CNOT's error rate when another CNOT
	// executes in the same layer on an adjacent link: err *= 1 +
	// CrosstalkFactor.
	CrosstalkFactor float64
	// Readout enables measurement bit-flips with the device's
	// per-qubit readout error.
	Readout bool
	// SerializeCrosstalk applies crosstalk-aware scheduling (Murali et
	// al., ASPLOS'20 — the paper's [22]): CNOTs on adjacent links are
	// never executed in the same layer, trading extra depth (and idle
	// error) for the crosstalk penalty. It changes the layering, not
	// the gates.
	SerializeCrosstalk bool
}

// DefaultNoise returns the noise model used throughout the evaluation.
func DefaultNoise() NoiseModel {
	return NoiseModel{
		Enabled:         true,
		IdleErrPerLayer: 0.0012,
		CrosstalkFactor: 0.3,
		Readout:         true,
	}
}

// Outcome reports a simulated workload's per-program results.
type Outcome struct {
	// PST[p] is program p's probability of a successful trial.
	PST []float64
	// Correct[p] is program p's noiseless modal bitstring (logical
	// qubit order, logical 0 first).
	Correct []string
	// Trials is the number of Monte-Carlo trials run.
	Trials int
}

// AvgPST returns the mean PST across programs.
func (o *Outcome) AvgPST() float64 {
	if len(o.PST) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range o.PST {
		sum += p
	}
	return sum / float64(len(o.PST))
}

// layered is the schedule flattened into depth layers; measurements are
// deferred to the very end (co-located programs cannot be measured until
// every program's gates have run, §III-C).
type layered struct {
	layers   [][]router.Op
	measures []router.Measurement
	active   []int       // sorted physical qubits in play
	compact  map[int]int // phys -> dense index
}

// layerize builds ASAP layers from the schedule ops over active qubits.
func layerize(sched *router.Schedule) *layered {
	activeSet := map[int]bool{}
	for _, op := range sched.Ops {
		for _, q := range op.Gate.Qubits {
			activeSet[q] = true
		}
	}
	for _, m := range sched.Measurements {
		activeSet[m.Phys] = true
	}
	var active []int
	for q := range activeSet {
		active = append(active, q)
	}
	sort.Ints(active)
	compact := map[int]int{}
	for i, q := range active {
		compact[q] = i
	}

	level := map[int]int{} // phys -> next free layer
	var layers [][]router.Op
	place := func(op router.Op, cost int) {
		start := 0
		for _, q := range op.Gate.Qubits {
			if level[q] > start {
				start = level[q]
			}
		}
		for len(layers) < start+cost {
			layers = append(layers, nil)
		}
		layers[start] = append(layers[start], op)
		for _, q := range op.Gate.Qubits {
			level[q] = start + cost
		}
	}
	for _, op := range sched.Ops {
		if op.Gate.IsMeasure() {
			continue // deferred
		}
		cost := 1
		if op.Gate.Name == circuit.GateSWAP {
			cost = 3
		}
		place(op, cost)
	}
	return &layered{
		layers:   layers,
		measures: sched.Measurements,
		active:   active,
		compact:  compact,
	}
}

// SimulateScheduleCtx runs the compiled schedule for the given number
// of noisy trials on the statevector engine and returns per-program
// PSTs. The correct answer per program is its modal bitstring under a
// noiseless run of the same schedule. progs must be the source programs
// the schedule was built from, each measuring at least one qubit; seed
// drives all stochastic channels.
//
// Trials run sharded over workers (0 selects pool.Default(), 1 forces
// sequential execution). Each fixed shard has its own counter-derived
// RNG, so the outcome is a pure function of the other arguments at
// every worker count and GOMAXPROCS. Cancellation is checked at shard
// boundaries: a service deadline abandons the remaining trial budget
// and returns the context's error.
func SimulateScheduleCtx(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int) (*Outcome, error) {
	return simulate(ctx, engineStatevector, d, sched, progs, trials, seed, noise, workers)
}

// runTrial executes all layers on st (without final measurements),
// injecting stochastic errors per the noise model.
func runTrial(st *state, d *arch.Device, lay *layered, noise NoiseModel, rng *rand.Rand) error {
	for _, layer := range lay.layers {
		// Count CNOT-layer adjacency for crosstalk.
		cnotEdges := layer2qEdges(d, layer, noise)
		busy := map[int]bool{}
		for _, op := range layer {
			g := op.Gate
			for _, q := range g.Qubits {
				busy[q] = true
			}
			switch {
			case g.Name == circuit.GateSWAP:
				a, b := lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				st.applySWAP(a, b)
				if noise.Enabled {
					// Three physical CNOTs' worth of error on the link.
					errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
					for k := 0; k < 3; k++ {
						if rng.Float64() < errRate {
							st.injectPauli(pick2(a, b, rng), rng)
						}
					}
				}
			case g.Name == circuit.GateCX:
				c, t := lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				st.applyCNOT(c, t)
				if noise.Enabled {
					errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
					if rng.Float64() < errRate {
						st.injectPauli(pick2(c, t, rng), rng)
					}
				}
			case g.Name == circuit.GateCZ:
				a, b := lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				st.applyCZ(a, b)
				if noise.Enabled {
					if rng.Float64() < d.CNOTError(g.Qubits[0], g.Qubits[1]) {
						st.injectPauli(pick2(a, b, rng), rng)
					}
				}
			case g.IsMeasure() || g.IsBarrier():
				// Measures are deferred; barriers are no-ops here.
			default:
				m, err := gateMatrix(g)
				if err != nil {
					return err
				}
				q := lay.compact[g.Qubits[0]]
				st.apply1q(m, q)
				if noise.Enabled && rng.Float64() < d.Gate1Err[g.Qubits[0]] {
					st.injectPauli(q, rng)
				}
			}
		}
		if noise.Enabled && noise.IdleErrPerLayer > 0 {
			for _, q := range lay.active {
				if !busy[q] && rng.Float64() < noise.IdleErrPerLayer {
					st.decay(lay.compact[q], rng)
				}
			}
		}
	}
	return nil
}

// layer2qEdges collects the normalized links of a layer's two-qubit ops
// when the noise model needs them for crosstalk — either the legacy
// scalar factor or the device's pairwise matrix. Returns nil otherwise
// so the per-layer scan is skipped entirely on crosstalk-free runs.
func layer2qEdges(d *arch.Device, layer []router.Op, noise NoiseModel) []graph.Edge {
	if !noise.Enabled || (noise.CrosstalkFactor <= 0 && !d.HasCrosstalk()) {
		return nil
	}
	var edges []graph.Edge
	for _, op := range layer {
		if op.Gate.IsTwoQubit() {
			edges = append(edges, graph.NewEdge(op.Gate.Qubits[0], op.Gate.Qubits[1]))
		}
	}
	return edges
}

// effective2qErr returns the error rate charged to one execution of the
// two-qubit link (a,b) given the other two-qubit links firing in the
// same layer. A device carrying a pairwise crosstalk matrix supersedes
// the scalar model: the worst characterized conditional error
// E((a,b)|busy) wins, and neighbors absent from the matrix are benign.
// Without a matrix the legacy scalar model applies — base error times
// 1+CrosstalkFactor when any same-layer two-qubit op is adjacent —
// byte-identical to the pre-matrix simulator.
func effective2qErr(d *arch.Device, noise NoiseModel, layerEdges []graph.Edge, a, b int) float64 {
	if d.HasCrosstalk() {
		return d.Worst2qErrUnder(graph.NewEdge(a, b), layerEdges)
	}
	errRate := d.CNOTError(a, b)
	if noise.CrosstalkFactor > 0 && crosstalkAdjacent(d, layerEdges, a, b) {
		errRate *= 1 + noise.CrosstalkFactor
	}
	return errRate
}

// crosstalkAdjacent reports whether another CNOT in the same layer acts
// on a link adjacent to (a,b): sharing a qubit or coupled to one of its
// endpoints. The self-skip compares normalized edges, so a hand-built
// layer listing the same link in reversed orientation still does not
// count as its own aggressor.
func crosstalkAdjacent(d *arch.Device, layerEdges []graph.Edge, a, b int) bool {
	self := graph.NewEdge(a, b)
	for _, e := range layerEdges {
		if graph.NewEdge(e.U, e.V) == self {
			continue
		}
		for _, x := range [2]int{e.U, e.V} {
			for _, y := range [2]int{a, b} {
				if x == y || d.Coupling.HasEdge(x, y) {
					return true
				}
			}
		}
	}
	return false
}

func pick2(a, b int, rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}

// serializeCrosstalk splits every layer containing CNOTs on adjacent
// links into conflict-free sub-layers (greedy graph coloring on the
// adjacency-conflict graph); non-CNOT ops stay in the first sub-layer.
func serializeCrosstalk(d *arch.Device, lay *layered) *layered {
	out := &layered{
		measures: lay.measures,
		active:   lay.active,
		compact:  lay.compact,
	}
	for _, layer := range lay.layers {
		var twoq, rest []router.Op
		for _, op := range layer {
			if op.Gate.IsTwoQubit() {
				twoq = append(twoq, op)
			} else {
				rest = append(rest, op)
			}
		}
		if len(twoq) <= 1 {
			out.layers = append(out.layers, layer)
			continue
		}
		// Greedy coloring: assign each CNOT the first sub-layer where
		// it conflicts with nothing already placed.
		var groups [][]router.Op
		for _, op := range twoq {
			placed := false
			for gi := range groups {
				conflict := false
				for _, other := range groups[gi] {
					if linksAdjacent(d, op.Gate.Qubits, other.Gate.Qubits) {
						conflict = true
						break
					}
				}
				if !conflict {
					groups[gi] = append(groups[gi], op)
					placed = true
					break
				}
			}
			if !placed {
				groups = append(groups, []router.Op{op})
			}
		}
		first := append(append([]router.Op(nil), rest...), groups[0]...)
		out.layers = append(out.layers, first)
		for _, g := range groups[1:] {
			out.layers = append(out.layers, g)
		}
	}
	return out
}

// linksAdjacent reports whether two 2-qubit ops act on links that share
// or couple a qubit (the crosstalk condition).
func linksAdjacent(d *arch.Device, a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y || d.Coupling.HasEdge(x, y) {
				return true
			}
		}
	}
	return false
}

// SimulateIdeal runs a plain circuit (logical qubits, no device) without
// noise and returns its modal output bitstring over measured qubits (in
// qubit order) plus that outcome's probability.
func SimulateIdeal(c *circuit.Circuit) (string, float64, error) {
	if c.NumQubits > maxStatevectorQubits {
		return "", 0, fmt.Errorf("sim: %d qubits exceed the statevector limit", c.NumQubits)
	}
	st := newState(c.NumQubits)
	for _, g := range c.Gates {
		switch {
		case g.IsMeasure() || g.IsBarrier():
			continue
		case g.Name == circuit.GateCX:
			st.applyCNOT(g.Qubits[0], g.Qubits[1])
		case g.Name == circuit.GateCZ:
			st.applyCZ(g.Qubits[0], g.Qubits[1])
		case g.Name == circuit.GateSWAP:
			st.applySWAP(g.Qubits[0], g.Qubits[1])
		default:
			m, err := gateMatrix(g)
			if err != nil {
				return "", 0, err
			}
			st.apply1q(m, g.Qubits[0])
		}
	}
	modal := st.modal()
	a := st.amps[modal]
	prob := real(a)*real(a) + imag(a)*imag(a)
	buf := make([]byte, c.NumQubits)
	for q := 0; q < c.NumQubits; q++ {
		buf[q] = byte('0' + (modal>>uint(q))&1)
	}
	return string(buf), prob, nil
}
