package sim

import (
	"context"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// SimulateScheduleCliffordCtx estimates per-program PSTs like
// SimulateScheduleCtx, with the same sharding and cancellation
// contract, but on the stabilizer tableau engine: it handles any number
// of active qubits (50-qubit chips included) as long as every gate in
// the schedule is Clifford. The reference outcome is the noiseless run
// with random measurement outcomes resolved to 0, matching the
// statevector engine's lowest-index modal convention.
func SimulateScheduleCliffordCtx(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int) (*Outcome, error) {
	return simulate(ctx, engineTableau, d, sched, progs, trials, seed, noise, workers)
}

// CliffordOutcome computes a logical Clifford circuit's noiseless
// reference bitstring without any device or routing: all non-measure
// gates run on a stabilizer tableau in program order, then every
// measured qubit is read in ascending qubit order with random outcomes
// resolved to 0 — the same convention SimulateScheduleCliffordCtx uses
// for its reference run. Property tests compare it against routed
// schedules' Correct strings; that comparison assumes the circuit's
// measurements are terminal (e.g. MeasureAll), matching the router's
// measure-deferral semantics.
func CliffordOutcome(c *circuit.Circuit) (string, error) {
	// Packed tableau by default: the boolean tableau survives only as
	// the property-test cross-check (TestPackedMatchesBooleanTableau).
	tb := newPtab(c.NumQubits)
	measured := make([]bool, c.NumQubits)
	ident := func(q int) int { return q }
	for _, g := range c.Gates {
		switch {
		case g.IsMeasure():
			measured[g.Qubits[0]] = true
		case g.IsBarrier():
			// no-op
		default:
			if err := tb.applyCliffordGate(g, ident); err != nil {
				return "", err
			}
		}
	}
	var buf []byte
	for q := 0; q < c.NumQubits; q++ {
		if !measured[q] {
			continue
		}
		b := tb.measure(q, func() bool { return false })
		buf = append(buf, byte('0'+b))
	}
	return string(buf), nil
}

// cliffordBackend is satisfied by both stabilizer implementations: the
// boolean reference tableau and the bit-packed ptab. The direct gate
// methods let the compiled hot path (hotpath.go) dispatch on a small op
// kind instead of re-resolving gate names per trial.
type cliffordBackend interface {
	applyCliffordGate(g circuit.Gate, qmap func(int) int) error
	injectPauliT(q int, rng *rand.Rand)
	decayT(q int, rng *rand.Rand)
	measure(q int, pick func() bool) int
	h(q int)
	s(q int)
	sdg(q int)
	xg(q int)
	yg(q int)
	zg(q int)
	cx(c, t int)
	cz(a, b int)
	swap(a, b int)
}

// runTrialT is runTrial over a stabilizer backend.
func runTrialT(tb cliffordBackend, d *arch.Device, lay *layered, noise NoiseModel, rng *rand.Rand) error {
	qmapOf := func(g circuit.Gate) func(int) int {
		return func(q int) int { return lay.compact[q] }
	}
	for _, layer := range lay.layers {
		cnotEdges := layer2qEdges(d, layer, noise)
		busy := map[int]bool{}
		for _, op := range layer {
			g := op.Gate
			if g.IsMeasure() || g.IsBarrier() {
				continue
			}
			for _, q := range g.Qubits {
				busy[q] = true
			}
			if err := tb.applyCliffordGate(g, qmapOf(g)); err != nil {
				return err
			}
			if !noise.Enabled {
				continue
			}
			switch {
			case g.Name == circuit.GateSWAP:
				errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
				for k := 0; k < 3; k++ {
					if rng.Float64() < errRate {
						tb.injectPauliT(pick2(lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]], rng), rng)
					}
				}
			case g.IsTwoQubit():
				errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
				if rng.Float64() < errRate {
					tb.injectPauliT(pick2(lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]], rng), rng)
				}
			default:
				if rng.Float64() < d.Gate1Err[g.Qubits[0]] {
					tb.injectPauliT(lay.compact[g.Qubits[0]], rng)
				}
			}
		}
		if noise.Enabled && noise.IdleErrPerLayer > 0 {
			for _, q := range lay.active {
				if !busy[q] && rng.Float64() < noise.IdleErrPerLayer {
					tb.decayT(lay.compact[q], rng)
				}
			}
		}
	}
	return nil
}
