package sim

// Trial-loop hot path: the Monte-Carlo engines execute the same layered
// schedule thousands of times, so everything that does not depend on
// the trial's random draws is resolved ONCE here — compact operand
// indices, per-op error rates with the crosstalk multiplier folded in,
// single-qubit gate matrices, per-layer idle-qubit lists — and the
// per-trial loop becomes a branch on a small op kind with zero map
// lookups and zero allocations. The legacy interpreters (runTrial,
// runTrialT) remain as the cross-validation reference; equivalence is
// enforced by TestCompiledTrialMatchesLegacy*.
//
// Determinism contract: a compiled program draws from the RNG in
// exactly the same order, with exactly the same comparisons, as the
// legacy interpreter it replaces — byte-identical PSTs are a hard
// invariant (see DESIGN.md, "Hot-path memory discipline").

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// engineKind selects which interpreter's semantics a compiled program
// bakes in. The two engines differ in two documented corners: the
// statevector path applies no crosstalk multiplier to CZ gates, and it
// counts barrier operands as busy for the idle-error channel while the
// tableau path does not.
type engineKind uint8

const (
	engineStatevector engineKind = iota
	engineTableau
)

// opKind is a compiled operation tag. Single-qubit gates compile to
// their named Clifford kind for the tableau engine and to op1Q (matrix
// apply) for the statevector engine.
type opKind uint8

const (
	op1Q opKind = iota
	opH
	opX
	opY
	opZ
	opS
	opSdg
	opCX
	opCZ
	opSWAP
)

// compiledOp is one gate with every trial-invariant input resolved:
// compact operand indices, the noise-draw threshold (crosstalk
// multiplier already applied), and the 1q unitary where relevant.
type compiledOp struct {
	kind opKind
	a, b int
	// err is the probability threshold for this op's Pauli-injection
	// draw(s); it is only read when the compiled noise model is enabled.
	err float64
	// m is the statevector 2x2 unitary for op1Q.
	m [2][2]complex128
}

// compiledLayer is one depth layer plus the compact indices of active
// qubits idle in it (in lay.active order — the idle-error draw order).
type compiledLayer struct {
	ops  []compiledOp
	idle []int
}

// compiledProgram is a layered schedule lowered for one engine.
type compiledProgram struct {
	layers []compiledLayer
	noise  NoiseModel
	nq     int // active qubit count
	// trialWork estimates one trial's cost (op count x per-op touch
	// cost) for the parallel-dispatch threshold.
	trialWork int64
}

// compileLayers lowers the layered schedule for the given engine. All
// gate-name resolution, crosstalk adjacency scans, busy-set and error
// arithmetic happen here, once, instead of once per trial.
func compileLayers(d *arch.Device, lay *layered, noise NoiseModel, engine engineKind) (*compiledProgram, error) {
	cp := &compiledProgram{noise: noise, nq: len(lay.active)}
	perOpCost := int64(1) << uint(min(len(lay.active), 30))
	if engine == engineTableau {
		words := (len(lay.active) + 63) / 64
		perOpCost = int64(2*len(lay.active)) * int64(words)
		if perOpCost == 0 {
			perOpCost = 1
		}
	}
	for _, layer := range lay.layers {
		cl := compiledLayer{}
		// Crosstalk is a property of the layer, not the trial: collect
		// the two-qubit links once and fold the scalar multiplier or the
		// pairwise conditional error into each op's compiled rate.
		layerEdges := layer2qEdges(d, layer, noise)
		busy := map[int]bool{}
		for _, op := range layer {
			g := op.Gate
			if g.IsMeasure() || g.IsBarrier() {
				// Barriers carry no compiled op; the statevector
				// interpreter counts their operands busy, the tableau
				// interpreter does not (mirrors runTrial vs runTrialT).
				if engine == engineStatevector {
					for _, q := range g.Qubits {
						busy[q] = true
					}
				}
				continue
			}
			for _, q := range g.Qubits {
				busy[q] = true
			}
			co := compiledOp{}
			switch g.Name {
			case circuit.GateSWAP:
				co.kind = opSWAP
				co.a, co.b = lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				co.err = effective2qErr(d, noise, layerEdges, g.Qubits[0], g.Qubits[1])
			case circuit.GateCX:
				co.kind = opCX
				co.a, co.b = lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				co.err = effective2qErr(d, noise, layerEdges, g.Qubits[0], g.Qubits[1])
			case circuit.GateCZ:
				co.kind = opCZ
				co.a, co.b = lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				// The statevector interpreter charges CZ its base error
				// with no crosstalk (scalar or matrix); the tableau
				// interpreter treats CZ like any two-qubit gate.
				co.err = d.CNOTError(g.Qubits[0], g.Qubits[1])
				if engine == engineTableau {
					co.err = effective2qErr(d, noise, layerEdges, g.Qubits[0], g.Qubits[1])
				}
			default:
				co.a = lay.compact[g.Qubits[0]]
				co.err = d.Gate1Err[g.Qubits[0]]
				if engine == engineStatevector {
					m, err := gateMatrix(g)
					if err != nil {
						return nil, err
					}
					co.kind, co.m = op1Q, m
				} else {
					k, ok := cliffordKind(g.Name)
					if !ok {
						return nil, fmt.Errorf("sim: schedule contains non-Clifford gate %q", g.Name)
					}
					co.kind = k
				}
			}
			cl.ops = append(cl.ops, co)
		}
		for _, q := range lay.active {
			if !busy[q] {
				cl.idle = append(cl.idle, lay.compact[q])
			}
		}
		cp.trialWork += int64(len(cl.ops)+len(cl.idle)) * perOpCost
		cp.layers = append(cp.layers, cl)
	}
	return cp, nil
}

// cliffordKind maps a single-qubit Clifford gate name to its op kind.
func cliffordKind(name string) (opKind, bool) {
	switch name {
	case circuit.GateH:
		return opH, true
	case circuit.GateX:
		return opX, true
	case circuit.GateY:
		return opY, true
	case circuit.GateZ:
		return opZ, true
	case circuit.GateS:
		return opS, true
	case circuit.GateSdg:
		return opSdg, true
	}
	return 0, false
}

// runStatevector executes one noisy trial on st. The RNG draw sequence
// is identical to the legacy runTrial: per op one Float64 (three for
// SWAP) when noise is enabled, then Intn(2)+Intn(3) per injected Pauli,
// then one Float64 per idle active qubit per layer.
func (cp *compiledProgram) runStatevector(st *state, rng *rand.Rand) {
	noisy := cp.noise.Enabled
	idleErr := cp.noise.IdleErrPerLayer
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			switch op.kind {
			case opSWAP:
				st.applySWAP(op.a, op.b)
				if noisy {
					for k := 0; k < 3; k++ {
						if rng.Float64() < op.err {
							st.injectPauli(pick2(op.a, op.b, rng), rng)
						}
					}
				}
			case opCX:
				st.applyCNOT(op.a, op.b)
				if noisy && rng.Float64() < op.err {
					st.injectPauli(pick2(op.a, op.b, rng), rng)
				}
			case opCZ:
				st.applyCZ(op.a, op.b)
				if noisy && rng.Float64() < op.err {
					st.injectPauli(pick2(op.a, op.b, rng), rng)
				}
			default:
				st.apply1q(op.m, op.a)
				if noisy && rng.Float64() < op.err {
					st.injectPauli(op.a, rng)
				}
			}
		}
		if noisy && idleErr > 0 {
			for _, q := range cl.idle {
				if rng.Float64() < idleErr {
					st.decay(q, rng)
				}
			}
		}
	}
}

// runStatevectorNoiseless executes the gates only — the reference run.
// It draws nothing from any RNG (the legacy path's reference RNG was
// never consulted either).
func (cp *compiledProgram) runStatevectorNoiseless(st *state) {
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			switch op.kind {
			case opSWAP:
				st.applySWAP(op.a, op.b)
			case opCX:
				st.applyCNOT(op.a, op.b)
			case opCZ:
				st.applyCZ(op.a, op.b)
			default:
				st.apply1q(op.m, op.a)
			}
		}
	}
}

// runTableau executes one noisy trial on a stabilizer backend with the
// same draw sequence as the legacy runTrialT.
func (cp *compiledProgram) runTableau(tb cliffordBackend, rng *rand.Rand) {
	noisy := cp.noise.Enabled
	idleErr := cp.noise.IdleErrPerLayer
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			applyTableauOp(tb, op)
			if !noisy {
				continue
			}
			switch op.kind {
			case opSWAP:
				for k := 0; k < 3; k++ {
					if rng.Float64() < op.err {
						tb.injectPauliT(pick2(op.a, op.b, rng), rng)
					}
				}
			case opCX, opCZ:
				if rng.Float64() < op.err {
					tb.injectPauliT(pick2(op.a, op.b, rng), rng)
				}
			default:
				if rng.Float64() < op.err {
					tb.injectPauliT(op.a, rng)
				}
			}
		}
		if noisy && idleErr > 0 {
			for _, q := range cl.idle {
				if rng.Float64() < idleErr {
					tb.decayT(q, rng)
				}
			}
		}
	}
}

// runTableauNoiseless executes the gates only — the reference run.
func (cp *compiledProgram) runTableauNoiseless(tb cliffordBackend) {
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			applyTableauOp(tb, &cl.ops[oi])
		}
	}
}

func applyTableauOp(tb cliffordBackend, op *compiledOp) {
	switch op.kind {
	case opH:
		tb.h(op.a)
	case opX:
		tb.xg(op.a)
	case opY:
		tb.yg(op.a)
	case opZ:
		tb.zg(op.a)
	case opS:
		tb.s(op.a)
	case opSdg:
		tb.sdg(op.a)
	case opCX:
		tb.cx(op.a, op.b)
	case opCZ:
		tb.cz(op.a, op.b)
	case opSWAP:
		tb.swap(op.a, op.b)
	}
}

// minParallelWork is the estimated whole-simulation work (trials x
// per-trial op-touch cost) below which shard fan-out costs more than it
// buys: small Clifford workloads finish a shard in microseconds, so
// goroutine dispatch and the pool's cancellation machinery dominate.
// The threshold never affects results — worker count only decides where
// shards run, never what they compute.
const minParallelWork = 1 << 21

// shardWorkers applies the dispatch threshold: simulations whose total
// estimated work is too small run on one worker regardless of the
// requested fan-out.
func shardWorkers(workers, trials int, perTrialWork int64) int {
	if workers == 1 {
		return 1
	}
	if int64(trials)*perTrialWork < minParallelWork {
		return 1
	}
	return workers
}
