package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload BENCHMARK.json lists is a driver workload with the
// same one-line rationale.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if w.Why != sw.Why {
			t.Errorf("%s: BENCHMARK.json says %q, the driver %q", sw.Name, sw.Why, w.Why)
		}
	}
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qucloudd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qucloudd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building qucloudd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload for two seconds, untraced and traced,
// and checks the result line against the contract: the correctness
// gate passed and exactly the metrics BENCHMARK.json names come out,
// with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds qucloudd and runs every workload")
	}
	spec := loadSpec(t)
	bin := buildDaemon(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "3", "-seconds", "2", "-trace", trace,
					"-daemon", bin, "-workdir", filepath.Join(t.TempDir(), "run")}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if !strings.HasPrefix(lines[0], "host {") {
					t.Errorf("first line is not the host fingerprint: %q", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d\nstderr:\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				names := spec.EndToEnd
				if trace == "1" {
					names = spec.PerLayer
				}
				for _, m := range names {
					want[m.Name] = m.Unit
				}
				var got []string
				for name, v := range res.Metrics {
					got = append(got, name)
					if unit, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					} else if unit != v.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, v.Unit, unit)
					}
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json names %d: %v", len(got), len(want), got)
				}
			})
		}
	}
}

// A run that cannot start the daemon exits non-zero without printing a
// result line.
func TestMissingDaemonFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "tiny-poisson", "-seconds", "1", "-daemon", filepath.Join(t.TempDir(), "absent"),
		"-workdir", filepath.Join(t.TempDir(), "run")}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("run without a daemon binary exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a failed run printed a result:\n%s", stdout.String())
	}
	if code := run([]string{"-workload", "no-such-workload"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
