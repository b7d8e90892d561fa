// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds qucloudd and this driver), starts a
// fresh qucloudd per run, drives it over loopback HTTP with one
// generator process holding at most two connections, checks the
// outputs, and prints one JSON result line. With -trace 1 it also
// replays the workload's job stream in-process through the layers'
// public Go functions, timing each call, and prints the per-layer
// metrics and a layer table instead of the end-to-end ones.
//
//	perfbench -workload tiny-poisson -seed 1 -seconds 20 -trace 0 \
//	    -daemon .bench_build/qucloudd -workdir .bench_build/run
//
// Workloads, metrics and the predictions they carry are described in
// README.md next to this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/circuit"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many daemon start-ups an untraced run measures for
// setup_s (the median is reported).
const setupReps = 21

type options struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	daemon  string
	workdir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed (inputs are derived from it)")
	seconds := fs.Float64("seconds", 10, "measured traffic duration")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	daemonBin := fs.String("daemon", ".bench_build/qucloudd", "qucloudd binary")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory for daemon logs, WAL and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: %v\n", err)
		return 2
	}
	opt := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemonBin, workdir: *workdir}
	res, err := bench(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gate collects correctness-check failures; any failure makes the run
// incorrect.
type gate struct {
	failures []string
	batches  int // replayed batches checked
}

func (g *gate) fail(format string, args ...any) {
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func (g *gate) pst(p float64) {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
		g.fail("PST %v outside [0, 1]", p)
	}
}

func bench(opt options, stdout, stderr io.Writer) (*result, error) {
	w := opt.w
	host := fingerprint(".")
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hj)
	if _, err := os.Stat(opt.daemon); err != nil {
		return nil, fmt.Errorf("qucloudd binary: %w", err)
	}
	if err := os.RemoveAll(opt.workdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	g := &gate{}

	// Set-up: daemon exec to healthy with one warm-up job done per
	// backend, several times; the last daemon serves the traffic.
	reps := setupReps
	if opt.trace {
		reps = 1
	}
	var setups []float64
	var d *daemon
	var err error
	warm := 0
	for r := range reps {
		if d != nil {
			d.stop(5 * time.Second)
		}
		t0 := time.Now()
		d, err = startDaemon(opt.daemon, w, filepath.Join(opt.workdir, "daemon-"+strconv.Itoa(r)))
		if err != nil {
			return nil, err
		}
		c := newClient(d.base)
		err = d.waitHealthy(c, 60*time.Second)
		if err == nil {
			warm, err = warmUp(c, w, g)
		}
		c.close()
		if err != nil {
			d.stop(5 * time.Second)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { d.stop(3 * time.Second) }()

	phases, err := drive(d, opt)
	if err != nil {
		return nil, err
	}
	checkPhases(phases, warm, g)
	d.stop(3 * time.Second)

	// The reported phase: the workload's latency step, or the last
	// step if the sweep stopped before it.
	rep := phases[min(w.LatencyStep, len(phases)-1)]
	rs := rep.Stats
	res := &result{Metrics: map[string]metricValue{}}
	for _, ph := range phases {
		a := ph.Stats.Acc
		res.Attempted += a.Attempted
		res.Failed += a.Failed + a.Refused
	}
	fmt.Fprintf(stdout, "phases:")
	maxRate := 0.0
	for _, ph := range phases {
		st := ph.Stats
		fmt.Fprintf(stdout, " [offered %.1f/s: sent %d done %d failed %d refused %d unfinished %d clamped %d, %.2f jobs/s, p%g latency %.4fs, pass %v]",
			ph.Rate, st.Acc.Attempted, st.Acc.Done, st.Acc.Failed, st.Acc.Refused, st.Acc.Unfinished, st.Clamped, st.JobsPerS, 100*st.LatQ, st.LatTail, st.Pass)
		if st.Pass {
			maxRate = math.Max(maxRate, st.JobsPerS)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "reported phase: %d samples, tail is p%.4g; setups %v\n", len(rs.Acc.Latencies), 100*rs.LatQ, setups)

	m := res.Metrics
	if !opt.trace {
		m["setup_s"] = metricValue{median(setups), "s"}
		m["jobs_per_s"] = metricValue{rs.JobsPerS, "1/s"}
		m["cpu_per_job_s"] = metricValue{rs.CPUPerJob, "s"}
		m["max_rate_jps"] = metricValue{maxRate, "1/s"}
		m["mean_pst"] = metricValue{rs.MeanPST, "frac"}
		m["trf"] = metricValue{rs.TRF, "jobs/batch"}
		// The replay's correctness share runs on every run: a short
		// untraced replay without the noisy simulation.
		r, err := newReplayer(w, replayInputOf(rep), opt.workdir, g)
		if err != nil {
			return nil, err
		}
		r.checkOnly = true
		if err := r.reset(false, 0); err != nil {
			return nil, err
		}
		_, err = r.pass(context.Background(), replayStream(w, opt.seed, opt.seconds), 12, 0)
		r.finish()
		if err != nil {
			return nil, err
		}
	} else {
		if err := tracedReplay(opt, rep, rs, g, m, stdout); err != nil {
			return nil, err
		}
	}
	if g.batches == 0 {
		g.fail("the replay checked no batch")
	}
	res.Correct = len(g.failures) == 0
	for _, f := range g.failures {
		fmt.Fprintf(stderr, "perfbench: correctness: %s\n", f)
	}
	return res, nil
}

// drive runs the workload's measured traffic: the open-loop sweep,
// stopping at the first step that misses the SLO.
func drive(d *daemon, opt options) ([]*phase, error) {
	w := opt.w
	total := time.Duration(opt.seconds * float64(time.Second))
	var phases []*phase
	base := 0
	for k, rate := range w.Rates {
		step := w.stepDuration(k, total)
		jobs := w.openSchedule(opt.seed, k, base, rate, step)
		base += len(jobs)
		ph, err := runPhase(d, w, jobs, rate)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		if !ph.Stats.Pass {
			break
		}
	}
	return phases, nil
}

// warmUpPrograms are the warm-up jobs, one aimed at each backend by the
// balanced fleet policy: a CNOT-light program goes to ibmq16 (better
// readout), a two-qubit program heavy in CNOTs to tokyo (better links).
func warmUpPrograms() []string {
	poolsOnce.Do(buildPools)
	heavy := circuit.New("warmup-links", 2)
	for range 40 {
		heavy.CX(0, 1)
	}
	return []string{(*tinyPool)[0].QASM, circuit.QASMString(heavy.MeasureAll())}
}

// warmUp submits warm-up jobs until every backend has completed one.
// The first warm-up job is resent with its idempotency key, which must
// answer 200 with the same job: that gate check runs on every run. It
// returns how many jobs the daemon accepted.
func warmUp(c *client, w *workload, g *gate) (int, error) {
	key := ""
	if len(w.Tenants) > 0 {
		key = w.Tenants[0].Key
	}
	progs := warmUpPrograms()
	accepted := 0
	for round := range 10 {
		var ids []string
		for k, qasm := range progs {
			body, _ := json.Marshal(map[string]string{"name": "warmup", "qasm": qasm})
			idem := fmt.Sprintf("warmup-%d-%d", round, k)
			status, data, _, err := c.do(http.MethodPost, "/v1/jobs", key, idem, body)
			if err != nil || status != http.StatusAccepted {
				return accepted, fmt.Errorf("warm-up submit: status %d: %v", status, err)
			}
			accepted++
			var rec jobRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				return accepted, err
			}
			ids = append(ids, rec.ID)
			if round == 0 && k == 0 {
				status, data, _, err := c.do(http.MethodPost, "/v1/jobs", key, idem, body)
				var again jobRecord
				if err != nil || json.Unmarshal(data, &again) != nil || status != http.StatusOK || again.ID != rec.ID {
					g.fail("idempotent resend: status %d id %q, want 200 and %q (%v)", status, again.ID, rec.ID, err)
				}
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for _, id := range ids {
			for {
				var rec jobRecord
				if _, err := c.getJSON("/v1/jobs/"+id, key, &rec); err != nil {
					return accepted, err
				}
				if rec.terminal() {
					if rec.State != "done" {
						return accepted, fmt.Errorf("warm-up job %s failed: %s", id, rec.Error)
					}
					break
				}
				if time.Now().After(deadline) {
					return accepted, errors.New("warm-up jobs did not finish")
				}
				time.Sleep(time.Millisecond)
			}
		}
		var bs []backendDoc
		if _, err := c.getJSON("/v1/backends", key, &bs); err != nil {
			return accepted, err
		}
		all := true
		for _, b := range bs {
			all = all && b.JobsCompleted > 0
		}
		if all {
			return accepted, nil
		}
	}
	return accepted, errors.New("warm-up never reached every backend")
}

// checkPhases is the end-to-end share of the correctness gate.
func checkPhases(phases []*phase, warm int, g *gate) {
	accepted, cut := warm, false
	seen := map[string]int{}
	for _, ph := range phases {
		cut = cut || ph.Cut
		ph.Poll.mu.Lock()
		if n := ph.Poll.errs; n > 0 {
			g.fail("%d read requests failed", n)
		}
		ph.Poll.mu.Unlock()
		for _, s := range ph.Sent {
			if s.Spec.Resend && s.accepted() && (s.ResendStatus != http.StatusOK || s.ResendID != s.ID) {
				g.fail("idempotent resend of %s: status %d id %q", s.ID, s.ResendStatus, s.ResendID)
			}
			if !s.accepted() {
				continue
			}
			accepted++
			seen[s.ID]++
			r, ok := ph.Poll.record(s.Seq)
			switch {
			case !ok && !ph.Cut:
				g.fail("accepted job %s missing from GET /v1/jobs", s.ID)
			case ok && r.ID != s.ID:
				g.fail("job seq %d listed as %s, accepted as %s", s.Seq, r.ID, s.ID)
			case ok && !r.terminal() && !ph.Cut:
				g.fail("job %s still %s after the drain", s.ID, r.State)
			case ok && r.State == "done":
				g.pst(r.PST)
			}
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if seen[id] != 1 {
			g.fail("job id %s accepted %d times", id, seen[id])
		}
	}
	last := phases[len(phases)-1].M1
	j := last.Jobs
	if j.Accepted != int64(accepted) {
		g.fail("/metrics accepted %d, generator saw %d accepted", j.Accepted, accepted)
	}
	open := last.Queue.Depth + last.Queue.InFlight
	if j.Completed+j.Failed+open != j.Accepted {
		g.fail("/metrics: completed %d + failed %d + queued/in-flight %d != accepted %d", j.Completed, j.Failed, open, j.Accepted)
	}
	if !cut && open != 0 {
		g.fail("/metrics: %d jobs still queued or in flight after a full drain", open)
	}
}

// replayInputOf extracts what the replay needs from the reported phase.
func replayInputOf(ph *phase) replayInput {
	in := replayInput{Depths: map[string][]int{}, Share: map[string]float64{}}
	ph.Poll.mu.Lock()
	samples := append([]depthSample(nil), ph.Poll.depths...)
	ph.Poll.mu.Unlock()
	var totals []float64
	for _, s := range samples {
		totals = append(totals, float64(s.total()))
		names := make([]string, 0, len(s.Depths))
		for n := range s.Depths {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			in.Depths[n] = append(in.Depths[n], s.Depths[n])
		}
	}
	in.DepthMean = mean(totals)
	st := ph.Stats
	done := 0
	for _, n := range st.Backends {
		done += n
	}
	for b, n := range st.Backends {
		in.Share[b] = float64(n) / float64(max(done, 1))
	}
	if done == 0 {
		in.Share["ibmq16"] = 1
	}
	return in
}

// replayStream yields the workload's job stream for the replay: the
// latency step's schedule, repeated with fresh indices if the replay
// needs more.
func replayStream(w *workload, seed int64, seconds float64) func() jobSpec {
	k := w.LatencyStep
	step := w.stepDuration(k, time.Duration(seconds*float64(time.Second)))
	var jobs []jobSpec
	i, round := 0, 0
	return func() jobSpec {
		if i == len(jobs) {
			jobs = w.openSchedule(seed, k+round*len(w.Rates), round*1_000_000, w.Rates[k], step)
			i = 0
			round++
		}
		i++
		return jobs[i-1]
	}
}

// tracedReplay runs the per-layer measurement: a traced pass sized by
// the time budget, then an untraced and a traced pass over the same
// jobs for the tracing overhead. Metrics come from the last traced
// pass and the end-to-end run's daemon counters.
func tracedReplay(opt options, rep *phase, rs phaseStats, g *gate, m map[string]metricValue, stdout io.Writer) error {
	w := opt.w
	r, err := newReplayer(w, replayInputOf(rep), opt.workdir, g)
	if err != nil {
		return err
	}
	ctx := context.Background()
	budget := time.Duration(opt.seconds / 5 * float64(time.Second))
	if err := r.reset(true, 0); err != nil {
		return err
	}
	n, err := r.pass(ctx, replayStream(w, opt.seed, opt.seconds), 0, budget)
	r.finish()
	if err != nil {
		return err
	}
	var wall [3]time.Duration
	for p := 1; p <= 2; p++ {
		if err := r.reset(p == 2, p); err != nil {
			return err
		}
		t0 := time.Now()
		_, err := r.pass(ctx, replayStream(w, opt.seed, opt.seconds), n, 0)
		wall[p] = time.Since(t0)
		r.finish()
		if err != nil {
			return err
		}
	}
	writeSpans(r, filepath.Join(opt.workdir, "spans.jsonl"))

	layers, total := r.layerShares()
	st := r.stats
	m0, m1 := rep.M0, rep.M1
	dHits := m1.Cache.Hits - m0.Cache.Hits
	dMiss := m1.Cache.Misses - m0.Cache.Misses
	dCoal := m1.Cache.Coalesced - m0.Cache.Coalesced
	dDone := m1.Jobs.Completed + m1.Jobs.Failed - m0.Jobs.Completed - m0.Jobs.Failed
	var depths []float64
	rep.Poll.mu.Lock()
	for _, s := range rep.Poll.depths {
		depths = append(depths, float64(s.total()))
	}
	rep.Poll.mu.Unlock()

	set := func(name string, v float64, unit string) { m[name] = metricValue{v, unit} }
	frac := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	set("sched.schedule_s", median(r.spanDurations("sched.schedule")), "s")
	set("sched.window_jobs", frac(float64(st.WindowJobs), float64(st.Windows)), "count")
	set("sched.useful_frac", frac(float64(st.Batch0Jobs), float64(st.ScheduledJobs)), "frac")
	set("sched.separate_epst_s", median(r.spanDurations("sched.separate_epst")), "s")
	set("sched.colocated_epst_s", median(r.spanDurations("sched.colocated_epst")), "s")
	set("partition.cdap_s", median(r.spanDurations("partition.cdap")), "s")
	set("community.build_s", r.communityBuild(3), "s")
	set("core.compile_s", median(r.spanDurations("core.compile", "core.compile_hit")), "s")
	set("router.route_s", zeroIfNaN(median(r.spanDurations("router.route"))), "s")
	set("core.cnots_added", mean(st.CNOTsAdded), "count")
	set("ccache.hit_frac", frac(float64(dHits+dCoal), float64(dHits+dMiss+dCoal)), "frac")
	set("ccache.misses", float64(dMiss), "count")
	set("ccache.coalesced", float64(dCoal), "count")
	set("ccache.lookup_p50_s", zeroIfNaN(median(r.spanDurations("core.compile_hit"))), "s")
	set("sim.simulate_s", median(r.spanDurations("sim.simulate")), "s")
	set("sim.active_qubits_mean", mean(st.ActiveQubits), "count")
	set("sim.trials_per_s", frac(float64(st.Trials), st.SimTime.Seconds()), "1/s")
	set("wal.append_s", zeroIfNaN(median(r.spanDurations("wal.append"))), "s")
	set("wal.appends", float64(m1.WAL.Appends-m0.WAL.Appends), "count")
	set("circuit.parse_qasm_s", median(r.spanDurations("circuit.parse_qasm")), "s")
	set("service.submit_job_s", median(r.spanDurations("service.submit_job")), "s")
	set("service.queue_wait_p50_s", zeroIfNaN(median(rs.Waits)), "s")
	qw, _ := tail(rs.Waits)
	set("service.queue_wait_p99_s", zeroIfNaN(qw), "s")
	// The daemon's histogram p50s are bucket midpoints; the phase means
	// (sum/count deltas) carry the exact figure next to them.
	set("service.compile_p50_s", m1.LatencySeconds.Compile.P50, "s")
	set("service.execute_p50_s", m1.LatencySeconds.Execute.P50, "s")
	set("service.compile_mean_s", phaseMean(m0.LatencySeconds.Compile, m1.LatencySeconds.Compile), "s")
	set("service.execute_mean_s", phaseMean(m0.LatencySeconds.Execute, m1.LatencySeconds.Execute), "s")
	set("service.batch_size_mean", rs.TRF, "count")
	set("service.colocated_frac", frac(float64(m1.Batches.ColocatedJobs-m0.Batches.ColocatedJobs), float64(dDone)), "frac")
	set("service.fallback_batches", float64(m1.Robustness.FallbackBatches-m0.Robustness.FallbackBatches), "count")
	set("service.queue_depth_mean", mean(depths), "count")
	// End-to-end figures measured as on every run, but too noisy on a
	// shared host to gate on (see README.md).
	set("latency_p50_s", rs.LatP50, "s")
	set("latency_p99_s", rs.LatTail, "s")
	set("submit_p99_s", rs.SubmitTail, "s")
	set("read_p99_s", rs.ReadTail, "s")
	set("gen.late_p99_s", rs.LateTail, "s")
	set("failed_frac", rs.Acc.failedFrac(), "frac")
	for _, l := range []string{"circuit", "service", "wal", "sched", "partition", "core", "router", "sim"} {
		set(l+".share", frac(layers[l].Seconds(), total.Seconds()), "frac")
	}
	set("trace.overhead_frac", frac((wall[2]-wall[1]).Seconds(), wall[1].Seconds()), "frac")

	// The layer table.
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(a, b int) bool { return layers[names[a]] > layers[names[b]] })
	fmt.Fprintf(stdout, "layer table: %s, traced replay of %d jobs in %d batches (%d cache hits, %d misses), %.3fs traced / %.3fs untraced\n",
		w.Name, n, st.Windows, st.Hits, st.Misses, wall[2].Seconds(), wall[1].Seconds())
	fmt.Fprintf(stdout, "  %-10s %10s %7s\n", "layer", "self_s", "share")
	for _, l := range names {
		fmt.Fprintf(stdout, "  %-10s %10.4f %6.1f%%\n", l, layers[l].Seconds(), 100*frac(layers[l].Seconds(), total.Seconds()))
	}
	return nil
}

// phaseMean is the mean of the samples a histogram gained between two
// snapshots.
func phaseMean(a, b histSnap) float64 {
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	return (histSum(b) - histSum(a)) / float64(n)
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
