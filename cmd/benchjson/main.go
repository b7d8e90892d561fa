// benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON record. Each invocation parses one benchmark
// run into a labelled group; -append merges the group into an existing
// file so a Makefile target can collect several runs (different
// packages require different `go test` invocations) into one document.
//
// Usage:
//
//	go test -bench . ./internal/sim | go run ./cmd/benchjson -o BENCH.json -label simulate
//	go test -bench Table2 .         | go run ./cmd/benchjson -o BENCH.json -label table2 -append
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one result line, e.g.
// "BenchmarkSimulateParallel-8  3  41532100 ns/op  1024 B/op  12 allocs/op".
type Benchmark struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "jobs/s",
	// "p99_wait_s") keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Ratio is a derived metric: the ns/op of one benchmark divided by
// another's, e.g. a cold-vs-warm cache speedup.
type Ratio struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Value       float64 `json:"value"`
}

// Group is the output of a single `go test -bench` run.
type Group struct {
	Label      string      `json:"label"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Package    string      `json:"package,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Ratios     []Ratio     `json:"ratios,omitempty"`
}

// deriveRatio evaluates a "name=Num/Den" spec against the parsed
// benchmarks (names as emitted, without the Benchmark prefix or -procs
// suffix) and appends the derived entry to the group. Because subtest
// names themselves contain "/" (e.g. "PackedVsBooleanTableau/packed"),
// every split position is tried until both sides resolve to benchmarks
// from this run.
func deriveRatio(g *Group, spec string) error {
	name, expr, ok := strings.Cut(spec, "=")
	if !ok || !strings.Contains(expr, "/") {
		return fmt.Errorf("-ratio %q: want name=Numerator/Denominator", spec)
	}
	find := func(bench string) (float64, bool) {
		for _, b := range g.Benchmarks {
			if b.Name == bench {
				return b.NsPerOp, true
			}
		}
		return 0, false
	}
	for i := 0; i < len(expr); i++ {
		if expr[i] != '/' {
			continue
		}
		num, den := expr[:i], expr[i+1:]
		nv, nok := find(num)
		dv, dok := find(den)
		if !nok || !dok {
			continue
		}
		//lint:ignore floateq guarding literal division by zero, not comparing measurements
		if dv == 0 {
			return fmt.Errorf("-ratio %q: denominator %q has zero ns/op", spec, den)
		}
		g.Ratios = append(g.Ratios, Ratio{Name: name, Numerator: num, Denominator: den, Value: nv / dv})
		return nil
	}
	return fmt.Errorf("-ratio %q: no split of %q names two benchmarks in this run", spec, expr)
}

// Document is the whole JSON file: one group per bench invocation.
type Document struct {
	Groups []Group `json:"groups"`
}

func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	b := Benchmark{Name: strings.TrimPrefix(fields[0], "Benchmark"), Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			// Custom b.ReportMetric units pass through verbatim.
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[fields[i+1]] = v
		}
	}
	return b, b.NsPerOp > 0
}

func parse(r io.Reader, label string) (Group, error) {
	g := Group{Label: label, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			g.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			g.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			g.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			g.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if b, ok := parseBenchLine(line); ok {
				g.Benchmarks = append(g.Benchmarks, b)
			}
		}
	}
	return g, sc.Err()
}

func run(in io.Reader, out string, label string, appendMode bool, ratios []string) error {
	g, err := parse(in, label)
	if err != nil {
		return err
	}
	if len(g.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	for _, spec := range ratios {
		if err := deriveRatio(&g, spec); err != nil {
			return err
		}
	}
	var doc Document
	if appendMode {
		data, err := os.ReadFile(out)
		if err != nil {
			return fmt.Errorf("-append: %w", err)
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("-append: parsing %s: %w", out, err)
		}
		// Re-running a labelled stage replaces its previous group.
		kept := doc.Groups[:0]
		for _, old := range doc.Groups {
			if old.Label != label {
				kept = append(kept, old)
			}
		}
		doc.Groups = kept
	}
	doc.Groups = append(doc.Groups, g)
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// benchKey identifies one benchmark across documents: group label plus
// the bench name and GOMAXPROCS suffix it ran under.
type benchKey struct {
	label string
	name  string
	procs int
}

func loadDoc(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Document{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return doc, nil
}

// fmtNs renders an ns/op value in a human unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gus", ns/1e3)
	default:
		return fmt.Sprintf("%.3gns", ns)
	}
}

// compareResult counts the outcomes of one comparison.
type compareResult struct {
	compared, regressions, added, removed int
}

// verdict is the gate's decision: it fails when nothing was compared,
// when a baseline benchmark has no counterpart in the new run (renamed,
// dropped, or run at another GOMAXPROCS, which would otherwise let a
// re-recorded baseline pass vacuously), or when any benchmark regressed.
func (r compareResult) verdict() error {
	switch {
	case r.compared == 0:
		return errors.New("nothing compared: no benchmark matched the baseline by group, name and procs")
	case r.removed > 0:
		return fmt.Errorf("%d baseline benchmark(s) missing from the new run", r.removed)
	case r.regressions > 0:
		return fmt.Errorf("%d benchmark(s) regressed", r.regressions)
	}
	return nil
}

// compareDocs prints one line per benchmark with the new/old ns-per-op
// ratio and counts regressions — benchmarks whose ratio exceeds
// threshold. Output follows the new document's group and bench order
// (then the old document's order for removed entries), so the report is
// deterministic. Benchmarks are matched by group label, name and procs;
// unmatched entries are reported as added/removed, and verdict fails
// the gate on removed ones.
func compareDocs(w io.Writer, oldDoc, newDoc Document, threshold float64) compareResult {
	oldIdx := map[benchKey]Benchmark{}
	for _, g := range oldDoc.Groups {
		for _, b := range g.Benchmarks {
			oldIdx[benchKey{g.Label, b.Name, b.Procs}] = b
		}
	}
	matched := map[benchKey]bool{}
	var r compareResult
	for _, g := range newDoc.Groups {
		for _, b := range g.Benchmarks {
			k := benchKey{g.Label, b.Name, b.Procs}
			ob, ok := oldIdx[k]
			if !ok {
				r.added++
				fmt.Fprintf(w, "added      %s/%s: %s\n", g.Label, b.Name, fmtNs(b.NsPerOp))
				continue
			}
			matched[k] = true
			if ob.NsPerOp <= 0 {
				fmt.Fprintf(w, "skipped    %s/%s: old ns/op is not positive\n", g.Label, b.Name)
				continue
			}
			r.compared++
			ratio := b.NsPerOp / ob.NsPerOp
			status := "ok        "
			switch {
			case ratio > threshold:
				status = "REGRESSION"
				r.regressions++
			case ratio < 1/threshold:
				status = "improved  "
			}
			fmt.Fprintf(w, "%s %s/%s: %s -> %s (x%.3f)\n", status, g.Label, b.Name, fmtNs(ob.NsPerOp), fmtNs(b.NsPerOp), ratio)
		}
	}
	for _, g := range oldDoc.Groups {
		for _, b := range g.Benchmarks {
			if !matched[benchKey{g.Label, b.Name, b.Procs}] {
				r.removed++
				fmt.Fprintf(w, "removed    %s/%s\n", g.Label, b.Name)
			}
		}
	}
	fmt.Fprintf(w, "%d compared, %d regressions (threshold x%.2f), %d added, %d removed\n",
		r.compared, r.regressions, threshold, r.added, r.removed)
	return r
}

// ratioFlags collects repeated -ratio specs.
type ratioFlags []string

func (r *ratioFlags) String() string     { return strings.Join(*r, ",") }
func (r *ratioFlags) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	out := flag.String("o", "BENCH.json", "output JSON file")
	label := flag.String("label", "bench", "label for this benchmark group")
	appendMode := flag.Bool("append", false, "merge into an existing output file instead of overwriting")
	compareMode := flag.Bool("compare", false, "compare two benchmark JSON files (old new) instead of parsing stdin; exits 1 on a regression, a missing baseline entry, or nothing compared")
	threshold := flag.Float64("threshold", 1.25, "-compare regression threshold: fail when new/old ns-per-op exceeds this factor")
	var ratios ratioFlags
	flag.Var(&ratios, "ratio", "derived speedup entry name=Numerator/Denominator (repeatable; names without the Benchmark prefix)")
	flag.Parse()
	if *compareMode {
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if *threshold <= 1 {
			fmt.Fprintf(os.Stderr, "benchjson: -threshold %v must be > 1\n", *threshold)
			os.Exit(2)
		}
		oldDoc, err := loadDoc(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newDoc, err := loadDoc(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if err := compareDocs(os.Stdout, oldDoc, newDoc, *threshold).verdict(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, *out, *label, *appendMode, ratios); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
