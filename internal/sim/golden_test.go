package sim

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

// goldenPath holds one line per (schedule, engine, noise, trials,
// workers) cell: the exact PST bits in hex and the Correct strings.
// The file is a cross-commit pin on simulator output; the test only
// compares and never rewrites it.
const goldenPath = "testdata/simulate_golden.txt"

// goldenCase is one routed schedule of the golden matrix.
type goldenCase struct {
	name     string
	d        *arch.Device
	sched    *router.Schedule
	progs    []*circuit.Circuit
	clifford bool // every gate is Clifford, so both engines run it
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	route := func(d *arch.Device, progs []*circuit.Circuit, initial [][]int) *router.Schedule {
		s, err := router.Route(d, progs, initial, router.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ghz := circuit.New("ghz", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	bv := nisqbench.MustGet("bv_n3")
	tof := nisqbench.MustGet("toffoli_3")
	nct := nisqbench.MustGet("3_17_13")

	ibm := arch.IBMQ16(0)
	xt := arch.IBMQ16(0)
	xt.Crosstalk = arch.GenerateCrosstalk(xt, 1)

	var cases []goldenCase
	add := func(name string, d *arch.Device, progs []*circuit.Circuit, initial [][]int) {
		clifford := true
		for _, p := range progs {
			clifford = clifford && IsClifford(p)
		}
		cases = append(cases, goldenCase{name, d, route(d, progs, initial), progs, clifford})
	}
	add("ghz4", ibm, []*circuit.Circuit{ghz}, [][]int{{0, 1, 2, 3}})
	add("toffoli3", ibm, []*circuit.Circuit{tof}, [][]int{{0, 1, 2}})
	add("bv3+ghz4", ibm, []*circuit.Circuit{bv, ghz}, [][]int{{0, 1, 2}, {4, 5, 6, 7}})
	add("bv3+3_17_13", ibm, []*circuit.Circuit{bv, nct}, [][]int{{0, 1, 2}, {5, 6, 7}})
	add("bv3+ghz4/xtalk", xt, []*circuit.Circuit{bv, ghz}, [][]int{{0, 1, 2}, {4, 5, 6, 7}})
	return cases
}

// goldenLines runs the full matrix and renders one line per cell.
func goldenLines(t *testing.T) []string {
	t.Helper()
	noReadout := DefaultNoise()
	noReadout.Readout = false
	serial := DefaultNoise()
	serial.SerializeCrosstalk = true
	noises := []struct {
		name  string
		model NoiseModel
	}{
		{"off", NoiseModel{}},
		{"default", DefaultNoise()},
		{"noreadout", noReadout},
		{"serial", serial},
	}
	type engine struct {
		name string
		run  func(context.Context, *arch.Device, *router.Schedule, []*circuit.Circuit, int, int64, NoiseModel, int) (*Outcome, error)
	}
	sv := engine{"statevector", SimulateScheduleCtx}
	tab := engine{"tableau", SimulateScheduleCliffordCtx}

	var lines []string
	for _, gc := range goldenCases(t) {
		engines := []engine{sv}
		if gc.clifford {
			engines = append(engines, tab)
		}
		for _, e := range engines {
			for _, n := range noises {
				for _, trials := range []int{1, 700, 2049} {
					for _, workers := range []int{1, 0} {
						out, err := e.run(context.Background(), gc.d, gc.sched, gc.progs, trials, 7, n.model, workers)
						if err != nil {
							t.Fatalf("%s/%s/%s/%d/%d: %v", gc.name, e.name, n.name, trials, workers, err)
						}
						psts := make([]string, len(out.PST))
						for i, p := range out.PST {
							psts[i] = fmt.Sprintf("%016x", math.Float64bits(p))
						}
						lines = append(lines, fmt.Sprintf("%s %s %s trials=%d workers=%d pst=%s correct=%s",
							gc.name, e.name, n.name, trials, workers,
							strings.Join(psts, ","), strings.Join(out.Correct, ",")))
					}
				}
			}
		}
	}
	return lines
}

// TestSimulateGolden pins both engines' outcomes bit for bit against
// the checked-in matrix, so a refactor of the trial loop, the
// measurement plan or the reduction cannot shift a PST unnoticed.
func TestSimulateGolden(t *testing.T) {
	f, err := os.Open(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("golden matrix has %d lines, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
