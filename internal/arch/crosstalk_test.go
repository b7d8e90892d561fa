package arch

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func xtalkDevice(t *testing.T) *Device {
	t.Helper()
	d := IBMQ16(1)
	d.Crosstalk = GenerateCrosstalk(d, 5)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateCrosstalkDeterministic(t *testing.T) {
	d := IBMQ16(1)
	a := GenerateCrosstalk(d, 5)
	b := GenerateCrosstalk(d, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different matrices")
	}
	c := GenerateCrosstalk(d, 6)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical matrices")
	}
}

func TestGenerateCrosstalkCoversAdjacentPairs(t *testing.T) {
	d := xtalkDevice(t)
	pairs := d.AdjacentEdgePairs()
	if len(d.Crosstalk) != len(pairs) {
		t.Fatalf("matrix has %d entries, want %d adjacent pairs", len(d.Crosstalk), len(pairs))
	}
	for _, p := range pairs {
		cond, ok := d.CrosstalkErr(p.Victim, p.Aggressor)
		if !ok {
			t.Fatalf("pair %v not characterized", p)
		}
		base := d.CNOTError(p.Victim.U, p.Victim.V)
		if cond < base*BenignRatioLo-1e-12 || cond > MaxCondErr {
			t.Errorf("pair %v: conditional %v outside [base=%v, cap=%v]", p, cond, base, MaxCondErr)
		}
	}
}

func TestGenerateCrosstalkPlantsHostilePairs(t *testing.T) {
	d := xtalkDevice(t)
	hostile := d.HostilePairs(HostileRatioLo * 0.99)
	if len(hostile) == 0 {
		t.Fatal("generator planted no hostile pairs")
	}
	// Hostility is mutual: each hostile pair's reverse must be hostile
	// too (both orientations draw from the hostile ratio range), unless
	// the reverse hit the MaxCondErr cap.
	for _, p := range hostile {
		rev := d.CrosstalkRatio(p.Aggressor, p.Victim)
		revCond, _ := d.CrosstalkErr(p.Aggressor, p.Victim)
		//lint:ignore floateq cap comparison is exact by construction
		if rev < HostileRatioLo*0.99 && revCond != MaxCondErr {
			t.Errorf("pair %v hostile but reverse ratio only %v", p, rev)
		}
	}
	// Roughly HostilePairFrac of unordered pairs should be hostile.
	frac := float64(len(hostile)) / float64(len(d.Crosstalk))
	if frac < 0.02 || frac > 0.4 {
		t.Errorf("hostile fraction %.3f implausible for target %.2f", frac, HostilePairFrac)
	}
}

func TestWorst2qErrUnder(t *testing.T) {
	d := IBMQ16(1)
	v := graph.NewEdge(0, 1)
	a := graph.NewEdge(2, 3) // coupled to v via 1-2
	base := d.CNOTError(0, 1)
	d.Crosstalk = CrosstalkMatrix{
		EdgePair{Victim: v, Aggressor: a}: base * 4,
	}
	if got := d.Worst2qErrUnder(v, nil); got != base {
		t.Errorf("no busy links: got %v, want base %v", got, base)
	}
	if got := d.Worst2qErrUnder(v, []graph.Edge{a}); got != base*4 {
		t.Errorf("hostile aggressor: got %v, want %v", got, base*4)
	}
	// Orientation-independent on both sides.
	if got := d.Worst2qErrUnder(graph.Edge{U: 1, V: 0}, []graph.Edge{{U: 3, V: 2}}); got != base*4 {
		t.Errorf("reversed orientations: got %v, want %v", got, base*4)
	}
	// A link is never its own aggressor, in either orientation.
	if got := d.Worst2qErrUnder(v, []graph.Edge{v, {U: 1, V: 0}}); got != base {
		t.Errorf("self aggressor: got %v, want base %v", got, base)
	}
	// Uncharacterized busy links are benign.
	if got := d.Worst2qErrUnder(v, []graph.Edge{graph.NewEdge(5, 6)}); got != base {
		t.Errorf("uncharacterized aggressor: got %v, want base %v", got, base)
	}
}

func TestAdjacentEdgePairsDisjointAndCoupled(t *testing.T) {
	d := IBMQ16(0)
	for _, p := range d.AdjacentEdgePairs() {
		if sharesQubit(p.Victim, p.Aggressor) {
			t.Fatalf("pair %v shares a qubit", p)
		}
		if !edgesCoupled(d, p.Victim, p.Aggressor) {
			t.Fatalf("pair %v not coupled", p)
		}
	}
}

func TestEPSTUnderPenalizesHostileNeighbors(t *testing.T) {
	d := IBMQ16(1)
	region := []int{0, 1}
	v := graph.NewEdge(0, 1)
	a := graph.NewEdge(2, 3)
	base := d.EPST(region, 10, 5, 2)
	// No matrix: identical to EPST regardless of busy links.
	//lint:ignore floateq fallback must be bit-identical
	if got := d.EPSTUnder(region, 10, 5, 2, []graph.Edge{a}); got != base {
		t.Errorf("no matrix: EPSTUnder %v != EPST %v", got, base)
	}
	d.Crosstalk = CrosstalkMatrix{EdgePair{Victim: v, Aggressor: a}: d.CNOTError(0, 1) * 4}
	//lint:ignore floateq no busy links must be bit-identical to EPST
	if got := d.EPSTUnder(region, 10, 5, 2, nil); got != base {
		t.Errorf("no busy links: EPSTUnder %v != EPST %v", got, base)
	}
	hostile := d.EPSTUnder(region, 10, 5, 2, []graph.Edge{a})
	if hostile >= base {
		t.Errorf("hostile neighbor did not lower EPST: %v >= %v", hostile, base)
	}
	benign := d.EPSTUnder(region, 10, 5, 2, []graph.Edge{graph.NewEdge(12, 13)})
	//lint:ignore floateq uncharacterized neighbors charge exactly the base error
	if benign != base {
		t.Errorf("uncharacterized neighbor changed EPST: %v != %v", benign, base)
	}
}

func TestCrosstalkValidation(t *testing.T) {
	cases := map[string]CrosstalkMatrix{
		"missing link":       {EdgePair{Victim: graph.NewEdge(0, 5), Aggressor: graph.NewEdge(2, 3)}: 0.1},
		"non-normalized":     {EdgePair{Victim: graph.Edge{U: 1, V: 0}, Aggressor: graph.NewEdge(2, 3)}: 0.1},
		"self pair":          {EdgePair{Victim: graph.NewEdge(0, 1), Aggressor: graph.NewEdge(0, 1)}: 0.1},
		"shared qubit":       {EdgePair{Victim: graph.NewEdge(0, 1), Aggressor: graph.NewEdge(1, 2)}: 0.1},
		"error out of range": {EdgePair{Victim: graph.NewEdge(0, 1), Aggressor: graph.NewEdge(2, 3)}: 1.0},
	}
	for name, m := range cases {
		d := IBMQ16(0)
		d.Crosstalk = m
		if err := d.Validate(); err == nil {
			t.Errorf("%s: validation accepted bad matrix", name)
		}
	}
}

func TestCrosstalkJSONRoundTrip(t *testing.T) {
	d := xtalkDevice(t)
	var buf bytes.Buffer
	if err := SaveDevice(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDevice(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Crosstalk, d.Crosstalk) {
		t.Error("crosstalk matrix did not survive the JSON round trip")
	}
	// A matrix-free device must serialize without a crosstalk key at
	// all, so specs stay byte-compatible with older readers.
	buf.Reset()
	if err := SaveDevice(&buf, IBMQ16(1)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("crosstalk")) {
		t.Error("matrix-free device emitted a crosstalk key")
	}
}

func TestApplyCalibrationInstallsAndClearsCrosstalk(t *testing.T) {
	d := IBMQ16(1)
	cal := GenerateCalibration(d, 9)
	cal.Crosstalk = GenerateCrosstalk(d, 9)
	ApplyCalibration(d, cal)
	if !d.HasCrosstalk() {
		t.Fatal("calibration with matrix did not install it")
	}
	if !reflect.DeepEqual(d.Crosstalk, cal.Crosstalk) {
		t.Error("installed matrix differs from calibration's")
	}
	// Clone, not alias: mutating the device's copy must not write back.
	for p := range d.Crosstalk {
		d.Crosstalk[p] = 0.9
		break
	}
	if reflect.DeepEqual(d.Crosstalk, cal.Crosstalk) {
		t.Error("device aliases the calibration's matrix")
	}
	ApplyCalibration(d, GenerateCalibration(d, 10))
	if d.HasCrosstalk() {
		t.Error("calibration without matrix did not clear the previous one")
	}
}

func TestCrosstalkSeriesDeterministicAndAligned(t *testing.T) {
	d := IBMQ16(1)
	a := CrosstalkSeries(d, 7, 3)
	b := CrosstalkSeries(d, 7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("series not deterministic")
	}
	if len(a) != 3 {
		t.Fatalf("got %d days", len(a))
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("consecutive days identical")
	}
	// Day i's conditional rates must be drawn against day i's base
	// rates: every benign entry stays within MaxCondErr of that day's
	// calibration, and installing the pair validates.
	cals := CalibrationSeries(d, 7, 3)
	for i := range cals {
		cals[i].Crosstalk = a[i]
		scratch := IBMQ16(1)
		ApplyCalibration(scratch, cals[i])
		if err := scratch.Validate(); err != nil {
			t.Fatalf("day %d: %v", i, err)
		}
	}
	// d itself must be untouched by the series generation.
	if d.HasCrosstalk() {
		t.Error("CrosstalkSeries mutated the input device")
	}
}

// TestEPSTAllocatesNothing guards the claim path: CDAP and the EPST
// scheduler score thousands of candidate regions per batch, so the
// per-region estimates must not allocate.
func TestEPSTAllocatesNothing(t *testing.T) {
	d := xtalkDevice(t)
	region := []int{5, 0, 1, 2, 14, 13}
	busy := d.Coupling.InducedEdges([]int{3, 4, 10, 11})
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"EPST", func() { d.EPST(region, 12, 20, len(region)) }},
		{"EPSTUnder", func() { d.EPSTUnder(region, 12, 20, len(region), busy) }},
		{"RegionFidelity", func() { d.RegionFidelity(region) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, allocs)
		}
	}
}
