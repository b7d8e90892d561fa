package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R)
BenchmarkSimulateSequential-8   	       3	 123456789 ns/op	    2048 B/op	      17 allocs/op
BenchmarkSimulateParallel-8     	       3	  41152263 ns/op
PASS
ok  	repro/internal/sim	1.234s
`

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkSimulateParallel-8   3   41152263 ns/op   1024 B/op   12 allocs/op")
	if !ok {
		t.Fatal("expected a parse")
	}
	if b.Name != "SimulateParallel" || b.Procs != 8 || b.Iterations != 3 {
		t.Fatalf("bad header fields: %+v", b)
	}
	if b.NsPerOp != 41152263 || b.BytesPerOp != 1024 || b.AllocsPerOp != 12 {
		t.Fatalf("bad metric fields: %+v", b)
	}
	for _, line := range []string{"PASS", "ok  repro 1.2s", "goos: linux", "Benchmark 3", "BenchmarkX notanint 5 ns/op"} {
		if _, ok := parseBenchLine(line); ok {
			t.Fatalf("line %q should not parse as a benchmark", line)
		}
	}
}

// TestParseBenchLineExtraMetrics: custom b.ReportMetric units land in
// Extra keyed by unit, alongside the standard fields.
func TestParseBenchLineExtraMetrics(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkFleet4ChipBalanced-8   2   51234567 ns/op   38.4 jobs/s   0.91 p99_wait_s")
	if !ok {
		t.Fatal("expected a parse")
	}
	if b.NsPerOp != 51234567 {
		t.Fatalf("ns/op = %v", b.NsPerOp)
	}
	if len(b.Extra) != 2 || b.Extra["jobs/s"] != 38.4 || b.Extra["p99_wait_s"] != 0.91 {
		t.Fatalf("extra metrics: %+v", b.Extra)
	}
	plain, ok := parseBenchLine("BenchmarkPlain-1 1 100 ns/op")
	if !ok || plain.Extra != nil {
		t.Fatalf("plain line should have no extras: %+v", plain.Extra)
	}
}

func TestRunWriteAndAppend(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(sampleBenchOutput), out, "simulate", false, nil); err != nil {
		t.Fatal(err)
	}
	second := "BenchmarkTable2-1 1 987654321 ns/op\n"
	if err := run(strings.NewReader(second), out, "table2", true, nil); err != nil {
		t.Fatal(err)
	}
	// Re-running a label replaces its group instead of duplicating it.
	if err := run(strings.NewReader(second), out, "table2", true, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(doc.Groups), doc.Groups)
	}
	if doc.Groups[0].Label != "simulate" || len(doc.Groups[0].Benchmarks) != 2 {
		t.Fatalf("bad simulate group: %+v", doc.Groups[0])
	}
	if doc.Groups[0].Goos != "linux" || doc.Groups[0].Package != "repro/internal/sim" {
		t.Fatalf("environment lines not captured: %+v", doc.Groups[0])
	}
	if doc.Groups[1].Label != "table2" || doc.Groups[1].Benchmarks[0].Name != "Table2" {
		t.Fatalf("bad table2 group: %+v", doc.Groups[1])
	}
}

const cacheBenchOutput = `goos: linux
BenchmarkCacheCompileCold-8   	      10	  50000000 ns/op
BenchmarkCacheCompileWarm-8   	  100000	      5000 ns/op
PASS
`

func TestRunDerivesRatios(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	specs := []string{"warm_speedup=CacheCompileCold/CacheCompileWarm"}
	if err := run(strings.NewReader(cacheBenchOutput), out, "cache", false, specs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rs := doc.Groups[0].Ratios
	if len(rs) != 1 {
		t.Fatalf("got %d ratios, want 1: %+v", len(rs), rs)
	}
	r := rs[0]
	if r.Name != "warm_speedup" || r.Numerator != "CacheCompileCold" || r.Denominator != "CacheCompileWarm" {
		t.Fatalf("bad ratio fields: %+v", r)
	}
	if r.Value != 10000 {
		t.Fatalf("ratio value %v, want 10000", r.Value)
	}
}

func TestRunRatioErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	for _, spec := range []string{
		"noequals",
		"name=NoSlash",
		"name=Missing/CacheCompileWarm",
		"name=CacheCompileCold/Missing",
	} {
		if err := run(strings.NewReader(cacheBenchOutput), out, "cache", false, []string{spec}); err == nil {
			t.Errorf("spec %q accepted, want error", spec)
		}
	}
}

// TestRunRatioSubtestNames: subtest benchmark names contain "/", so
// the Num/Den split must try each position.
func TestRunRatioSubtestNames(t *testing.T) {
	const subtestOutput = `goos: linux
BenchmarkPackedVsBooleanTableau/boolean-8   100   900000 ns/op
BenchmarkPackedVsBooleanTableau/packed-8   1000    90000 ns/op
PASS
`
	out := filepath.Join(t.TempDir(), "bench.json")
	specs := []string{"packed_speedup=PackedVsBooleanTableau/boolean/PackedVsBooleanTableau/packed"}
	if err := run(strings.NewReader(subtestOutput), out, "tableau", false, specs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rs := doc.Groups[0].Ratios
	if len(rs) != 1 {
		t.Fatalf("got %d ratios, want 1: %+v", len(rs), rs)
	}
	r := rs[0]
	if r.Numerator != "PackedVsBooleanTableau/boolean" || r.Denominator != "PackedVsBooleanTableau/packed" {
		t.Fatalf("bad split: %+v", r)
	}
	if r.Value != 10 {
		t.Fatalf("ratio value %v, want 10", r.Value)
	}
}

func TestCompareDocsGolden(t *testing.T) {
	oldDoc, err := loadDoc(filepath.Join("testdata", "compare_old.json"))
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := loadDoc(filepath.Join("testdata", "compare_new.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	regressions := compareDocs(&buf, oldDoc, newDoc, 1.25).regressions
	if regressions != 1 {
		t.Fatalf("got %d regressions, want 1 (SimulateCliffordParallel)", regressions)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "compare_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatalf("compare output differs from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestCompareDocsThreshold: the regression verdict must follow the
// configured threshold, and identical documents never regress.
func TestCompareDocsThreshold(t *testing.T) {
	oldDoc, err := loadDoc(filepath.Join("testdata", "compare_old.json"))
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := loadDoc(filepath.Join("testdata", "compare_new.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	// At a 1.5x threshold the 1.404x Clifford slowdown passes.
	if got := compareDocs(&buf, oldDoc, newDoc, 1.5).regressions; got != 0 {
		t.Fatalf("threshold 1.5: got %d regressions, want 0", got)
	}
	buf.Reset()
	// At 1.01x both the Clifford slowdown regresses; improvements never do.
	if got := compareDocs(&buf, oldDoc, newDoc, 1.01).regressions; got != 1 {
		t.Fatalf("threshold 1.01: got %d regressions, want 1", got)
	}
	buf.Reset()
	if got := compareDocs(&buf, oldDoc, oldDoc, 1.01).regressions; got != 0 {
		t.Fatalf("self-compare: got %d regressions, want 0", got)
	}
}

// compareGolden runs -compare on testdata/<name>_{old,new}.json,
// checks the report against testdata/<name>_golden.txt, and returns
// the gate's verdict.
func compareGolden(t *testing.T, name string) error {
	t.Helper()
	oldDoc, err := loadDoc(filepath.Join("testdata", name+"_old.json"))
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := loadDoc(filepath.Join("testdata", name+"_new.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	r := compareDocs(&buf, oldDoc, newDoc, 1.6)
	want, err := os.ReadFile(filepath.Join("testdata", name+"_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatalf("compare output differs from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
	if r.regressions != 0 {
		t.Fatalf("got %d regressions, want 0: the gate must fail on its own", r.regressions)
	}
	return r.verdict()
}

// TestCompareNothingComparedFails: a baseline recorded at procs 1
// against a run at procs 2 matches nothing; the gate must fail instead
// of passing with "0 compared, 0 regressions".
func TestCompareNothingComparedFails(t *testing.T) {
	err := compareGolden(t, "compare_procs")
	if err == nil || !strings.Contains(err.Error(), "nothing compared") {
		t.Fatalf("verdict = %v, want a nothing-compared failure", err)
	}
}

// TestCompareMissingBaselineFails: a baseline entry absent from the new
// run fails the gate even when every matched benchmark is fine.
func TestCompareMissingBaselineFails(t *testing.T) {
	err := compareGolden(t, "compare_missing")
	if err == nil || !strings.Contains(err.Error(), "1 baseline benchmark(s) missing") {
		t.Fatalf("verdict = %v, want a missing-baseline failure", err)
	}
}

// TestCompareVerdict: identical documents pass; a regression alone fails.
func TestCompareVerdict(t *testing.T) {
	oldDoc, err := loadDoc(filepath.Join("testdata", "compare_missing_old.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDocs(io.Discard, oldDoc, oldDoc, 1.6).verdict(); err != nil {
		t.Fatalf("self-compare verdict = %v, want pass", err)
	}
	slow := Document{Groups: []Group{{Label: oldDoc.Groups[0].Label, Benchmarks: append([]Benchmark(nil), oldDoc.Groups[0].Benchmarks...)}}}
	for i := range slow.Groups[0].Benchmarks {
		slow.Groups[0].Benchmarks[i].NsPerOp *= 2
	}
	if err := compareDocs(io.Discard, oldDoc, slow, 1.6).verdict(); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("2x slowdown verdict = %v, want a regression failure", err)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader("PASS\n"), out, "x", false, nil); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}
