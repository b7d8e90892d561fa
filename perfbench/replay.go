package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wal"
)

// The replay drives a workload's job stream in-process through the
// calls a qucloudd worker and front end make, in the order they make
// them: parse, admit (and log), claim an EPST batch from a window as
// deep as the end-to-end run's sampled queue, compile through the
// compile cache, simulate. With a tracer on, every call is a span.
// Decomposition calls (SeparateEPST, ColocatedEPST, CDAP, Route) run
// on the same inputs right after the call they split and are marked
// as such; they are not part of the blocking path.

// replayInput is what the end-to-end run tells the replay.
type replayInput struct {
	// Depths holds per-backend queue-depth samples from /v1/fleet.
	Depths map[string][]int
	// Share is each backend's share of the run's done jobs.
	Share map[string]float64
	// DepthMean is the mean total queue depth.
	DepthMean float64
}

type replayer struct {
	w      *workload
	in     replayInput
	devs   []*arch.Device
	comps  []*core.Compiler
	trees  []*community.Tree
	dir    string
	checks *gate
	// checkOnly skips the noisy simulation: the correctness-gate pass
	// that runs on every end-to-end run.
	checkOnly bool

	// Per-pass state, reset by reset.
	tr        *tracer
	cache     *ccache.Cache
	svc       *service.Service
	svcJobs   int
	wlog      *wal.Log
	queues    [][]rjob
	targets   []int // next window depth per backend
	depthIdx  []int
	assigned  []int
	submitted int
	simSeed   int64
	stats     replayStats
}

type rjob struct {
	id   string
	circ *circuit.Circuit
}

// replayStats accumulates the replay's per-layer observations.
type replayStats struct {
	Windows, WindowJobs, Batch0Jobs, ScheduledJobs int
	CNOTsAdded                                     []float64
	ActiveQubits                                   []float64
	Trials                                         int
	SimTime                                        time.Duration
	// Attributed layer time split out of opaque calls (see shares).
	PartitionInSched, PartitionInCompile, RouterInCompile time.Duration
	Hits, Misses                                          int
}

func newReplayer(w *workload, in replayInput, dir string, checks *gate) (*replayer, error) {
	r := &replayer{w: w, in: in, dir: dir, checks: checks}
	for _, name := range []string{"ibmq16", "tokyo"} {
		d, err := arch.ByName(name, 0)
		if err != nil {
			return nil, err
		}
		c := core.NewCompiler(d)
		// The service's defaults: one compile attempt per batch.
		c.Attempts = service.DefaultConfig().Attempts
		r.devs = append(r.devs, d)
		r.comps = append(r.comps, c)
		// Built once up front, as the daemon's warm-up does.
		r.trees = append(r.trees, c.Tree())
	}
	return r, nil
}

func (r *replayer) serviceConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.QueueSize = queueSize
	cfg.Trials = r.w.Trials
	cfg.MaxJobHistory = -1
	for _, t := range r.w.Tenants {
		cfg.Tenants = append(cfg.Tenants, service.Tenant{ID: t.ID, Key: t.Key, Weight: t.Weight})
	}
	return cfg
}

// reset starts a pass from the state a freshly warmed daemon has.
func (r *replayer) reset(traced bool, pass int) error {
	r.tr = newTracer(traced)
	r.cache = ccache.New(service.DefaultConfig().CacheSize)
	r.svcJobs = 0
	r.svc = nil
	r.queues = make([][]rjob, len(r.devs))
	r.targets = make([]int, len(r.devs))
	r.depthIdx = make([]int, len(r.devs))
	r.assigned = make([]int, len(r.devs))
	for b := range r.devs {
		r.targets[b] = r.nextTarget(b)
	}
	r.submitted = 0
	r.simSeed = 1
	r.stats = replayStats{}
	if r.w.WAL {
		l, _, err := wal.Open(fmt.Sprintf("%s/replay-wal-%d.jsonl", r.dir, pass))
		if err != nil {
			return err
		}
		r.wlog = l
	}
	return nil
}

func (r *replayer) finish() {
	if r.svc != nil {
		_ = r.svc.Shutdown(context.Background())
		r.svc = nil
	}
	if r.wlog != nil {
		_ = r.wlog.Close()
		r.wlog = nil
	}
}

// nextTarget cycles through the backend's sampled depths: the window a
// claim sees, at least one job and at most the lookahead.
func (r *replayer) nextTarget(b int) int {
	ds := r.in.Depths[r.devs[b].Name]
	if len(ds) == 0 {
		return 1
	}
	d := ds[r.depthIdx[b]%len(ds)]
	r.depthIdx[b]++
	return max(1, min(d, lookahead))
}

// pickBackend spreads jobs over the backends in the shares the
// end-to-end run's dispatcher produced (largest deficit first).
func (r *replayer) pickBackend() int {
	best, bestDef := 0, math.Inf(-1)
	n := float64(r.submitted + 1)
	for b, d := range r.devs {
		def := r.in.Share[d.Name]*n - float64(r.assigned[b])
		if def > bestDef+1e-12 {
			best, bestDef = b, def
		}
	}
	r.assigned[best]++
	return best
}

// pass replays jobs until the budget is spent (budget > 0) or n jobs
// were submitted, then claims until every queue is empty. It returns
// the number of jobs submitted.
func (r *replayer) pass(ctx context.Context, next func() jobSpec, n int, budget time.Duration) (int, error) {
	start := time.Now()
	for {
		if budget > 0 && time.Since(start) >= budget || budget <= 0 && r.submitted >= n {
			break
		}
		if err := r.submitOne(ctx, next()); err != nil {
			return r.submitted, err
		}
	}
	for b := range r.devs {
		for len(r.queues[b]) > 0 {
			if err := r.claim(ctx, b); err != nil {
				return r.submitted, err
			}
		}
	}
	return r.submitted, nil
}

func (r *replayer) submitOne(ctx context.Context, j jobSpec) error {
	tr := r.tr
	// Keep the in-process service's queue as deep as the daemon's was:
	// it never claims, so start a fresh one when it holds that many.
	if r.svc == nil || float64(r.svcJobs) >= math.Max(1, math.Round(r.in.DepthMean)) {
		if r.svc != nil {
			_ = r.svc.Shutdown(ctx)
		}
		svc, err := service.New(r.devs, r.serviceConfig())
		if err != nil {
			return err
		}
		r.svc, r.svcJobs = svc, 0
	}
	jobID := "r" + strconv.Itoa(j.Index)
	root := tr.begin("replay.job", jobID, 0)

	id := tr.begin("circuit.parse_qasm", jobID, root)
	circ, err := circuit.ParseQASMString(j.Prog.Name, j.Prog.QASM)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay parse %s: %w", j.Prog.Name, err)
	}
	opts := service.SubmitOptions{IdempotencyKey: j.Idem}
	if j.Tenant >= 0 {
		opts.Tenant = r.w.Tenants[j.Tenant].ID
	}
	id = tr.begin("service.submit_job", jobID, root)
	rec, _, err := r.svc.SubmitJob(circ, opts)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay submit: %w", err)
	}
	r.svcJobs++
	if r.wlog != nil {
		id = tr.begin("wal.append", jobID, root)
		err := r.wlog.Append(wal.Record{
			Type: wal.TypeSubmit, ID: rec.ID, Seq: rec.Seq, Tenant: rec.Tenant, Name: rec.Name,
			QASM: circuit.QASMString(circ), Idem: j.Idem,
			SubmittedUnixNano: rec.SubmittedAt.UnixNano(), Arrival: rec.ArrivalSeconds,
		})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay wal: %w", err)
		}
	}
	tr.end(root)
	b := r.pickBackend()
	r.submitted++
	r.queues[b] = append(r.queues[b], rjob{id: jobID, circ: circ})
	for len(r.queues[b]) >= r.targets[b] {
		if err := r.claim(ctx, b); err != nil {
			return err
		}
		r.targets[b] = r.nextTarget(b)
	}
	return nil
}

// claim is one worker iteration on backend b: EPST-schedule the window,
// take the first batch, compile it through the cache, simulate it.
func (r *replayer) claim(ctx context.Context, b int) error {
	tr, dev, comp, tree := r.tr, r.devs[b], r.comps[b], r.trees[b]
	window := r.queues[b][:min(len(r.queues[b]), lookahead)]
	batchID := "b-" + dev.Name + "-" + window[0].id
	root := tr.begin("replay.batch", batchID, 0)
	defer tr.end(root)

	sjobs := make([]sched.Job, len(window))
	for i, j := range window {
		sjobs[i] = sched.Job{ID: i, Circ: j.circ}
	}
	cfg := sched.Config{Epsilon: epsilon, Lookahead: lookahead, MaxColocate: maxColocate, Omega: comp.Omega}
	sid := tr.begin("sched.schedule", batchID, root)
	batches, err := sched.Schedule(dev, sjobs, cfg)
	schedDur := tr.end(sid)
	if err != nil || len(batches) == 0 {
		return fmt.Errorf("replay schedule on %s: %v", dev.Name, err)
	}
	r.stats.Windows++
	r.stats.WindowJobs += len(window)
	r.stats.Batch0Jobs += len(batches[0].JobIDs)
	for _, bt := range batches {
		r.stats.ScheduledJobs += len(bt.JobIDs)
	}

	// Decomposition of the schedule call: the head's separate estimate,
	// and a co-location estimate plus its CDAP partition on the batch
	// (or, for a solo batch, the head with the next window job).
	probe := make([]*circuit.Circuit, 0, maxColocate)
	for _, i := range batches[0].JobIDs {
		probe = append(probe, window[i].circ)
	}
	if len(probe) == 1 && len(window) > 1 {
		probe = append(probe, window[1].circ)
	}
	id := tr.begin("sched.separate_epst", batchID, sid)
	tr.decomp(id)
	_, err = sched.SeparateEPST(dev, tree, window[0].circ)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay SeparateEPST: %w", err)
	}
	id = tr.begin("sched.colocated_epst", batchID, sid)
	tr.decomp(id)
	_, coErr := sched.ColocatedEPST(dev, tree, probe)
	coDur := tr.end(id)
	id = tr.begin("partition.cdap", batchID, sid)
	tr.decomp(id)
	_, cdapErr := partition.CDAP(dev, tree, probe)
	cdapDur := tr.end(id)
	if coErr == nil && cdapErr == nil && coDur > 0 {
		// Schedule is a sequence of EPST estimates; each spends the
		// CDAP share of its time partitioning.
		r.stats.PartitionInSched += time.Duration(float64(schedDur) * math.Min(1, float64(cdapDur)/float64(coDur)))
	}

	// Take the batch out of the queue.
	taken := map[int]bool{}
	progs := make([]*circuit.Circuit, 0, len(batches[0].JobIDs))
	for _, i := range batches[0].JobIDs {
		taken[i] = true
		progs = append(progs, window[i].circ)
	}
	rest := r.queues[b][:0]
	for i, j := range r.queues[b] {
		if !taken[i] {
			rest = append(rest, j)
		}
	}
	r.queues[b] = rest

	strat := core.Separate
	if len(progs) > 1 {
		strat = core.CDAPXSwap
	}
	cid := tr.begin("core.compile", batchID, root)
	res, outcome, err := comp.CompileCachedContext(ctx, r.cache, progs, strat)
	compileDur := tr.end(cid)
	if err != nil {
		return fmt.Errorf("replay compile on %s: %w", dev.Name, err)
	}
	if outcome == ccache.OutcomeMiss {
		r.stats.Misses++
		if err := r.decomposeCompile(ctx, batchID, cid, compileDur, b, progs, strat); err != nil {
			return err
		}
	} else {
		r.stats.Hits++
		if tr.on {
			tr.spans[cid-1].Name = "core.compile_hit"
		}
	}
	added := res.CNOTs
	for _, p := range progs {
		added -= p.CNOTCount()
	}
	r.stats.CNOTsAdded = append(r.stats.CNOTsAdded, float64(added))
	r.checkBatch(ctx, dev, res)
	if r.checkOnly {
		return nil
	}

	id = tr.begin("sim.simulate", batchID, root)
	t0 := time.Now()
	psts, err := comp.SimulateContext(ctx, res, r.w.Trials, r.simSeed, sim.DefaultNoise())
	r.stats.SimTime += time.Since(t0)
	tr.end(id)
	r.simSeed++
	if err != nil {
		return fmt.Errorf("replay simulate on %s: %w", dev.Name, err)
	}
	r.stats.Trials += r.w.Trials * len(res.Schedules)
	r.stats.ActiveQubits = append(r.stats.ActiveQubits, activeQubits(res))
	for _, p := range psts {
		r.checks.pst(p)
	}
	if r.wlog != nil {
		for i, p := range psts {
			id = tr.begin("wal.append", batchID, root)
			err := r.wlog.Append(wal.Record{Type: wal.TypeDone, ID: batchID + "/" + strconv.Itoa(i), Backend: dev.Name, PST: p})
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replay wal: %w", err)
			}
		}
	}
	return nil
}

// routeCalls is how many router passes one compile attempt makes:
// Traversals forward+backward reverse-traversal rounds, then the final
// route (the same count for Separate and the joint strategies).
func routeCalls(c *core.Compiler) int { return 2*c.Traversals + 1 }

// decomposeCompile splits a cache-missing compile: CDAP on the same
// programs, and one router.Route from the CDAP mapping with the
// strategy's router options.
func (r *replayer) decomposeCompile(ctx context.Context, batchID string, parent int, compileDur time.Duration, b int, progs []*circuit.Circuit, strat core.Strategy) error {
	tr, dev, comp, tree := r.tr, r.devs[b], r.comps[b], r.trees[b]
	id := tr.begin("partition.cdap", batchID, parent)
	tr.decomp(id)
	part, err := partition.CDAP(dev, tree, progs)
	cdapDur := tr.end(id)
	if err != nil {
		return fmt.Errorf("replay CDAP: %w", err)
	}
	initial := make([][]int, len(progs))
	for i, a := range part.Assignments {
		initial[i] = a.InitialMapping
	}
	opts := router.DefaultOptions()
	if strat == core.CDAPXSwap {
		opts = router.XSWAPOptions()
	}
	opts.NoisePenalty = comp.NoisePenalty
	opts.Seed = 1
	id = tr.begin("router.route", batchID, parent)
	tr.decomp(id)
	_, err = router.Route(dev, progs, initial, opts)
	routeDur := tr.end(id)
	if err != nil {
		return fmt.Errorf("replay route: %w", err)
	}
	inPart := min(compileDur, cdapDur)
	r.stats.PartitionInCompile += inPart
	r.stats.RouterInCompile += min(compileDur-inPart, time.Duration(routeCalls(comp))*routeDur)
	return nil
}

// activeQubits is the statevector width the simulation runs: distinct
// physical qubits the schedule touches (mean over per-program
// schedules for Separate).
func activeQubits(res *core.Result) float64 {
	total := 0.0
	for _, s := range res.Schedules {
		seen := map[int]bool{}
		for _, op := range s.Ops {
			for _, q := range op.Gate.Qubits {
				seen[q] = true
			}
		}
		total += float64(len(seen))
	}
	return total / float64(len(res.Schedules))
}

// checkBatch is the replay's share of the correctness gate: the routed
// schedules validate against their programs, and the noiseless
// simulation of each schedule yields, per program, the outcome an
// unrouted ideal simulation of that program gives.
func (r *replayer) checkBatch(ctx context.Context, dev *arch.Device, res *core.Result) {
	if err := res.Validate(); err != nil {
		r.checks.fail("compiled batch fails Validate: %v", err)
		return
	}
	type unit struct {
		sched *router.Schedule
		progs []*circuit.Circuit
	}
	var units []unit
	if res.Strategy == core.Separate {
		for i, p := range res.Programs {
			units = append(units, unit{res.Schedules[i], []*circuit.Circuit{p}})
		}
	} else {
		units = append(units, unit{res.Schedules[0], res.Programs})
	}
	for _, u := range units {
		out, err := sim.SimulateScheduleCtx(ctx, dev, u.sched, u.progs, 1, 1, sim.NoiseModel{}, 1)
		if err != nil {
			r.checks.fail("noiseless simulation: %v", err)
			continue
		}
		for i, p := range u.progs {
			want, err := idealMeasured(p)
			if err != nil {
				r.checks.fail("ideal simulation of %s: %v", p.Name, err)
				continue
			}
			if out.Correct[i] != want {
				r.checks.fail("%s on %s: routed noiseless outcome %s, ideal %s", p.Name, dev.Name, out.Correct[i], want)
			}
		}
	}
	r.checks.batches++
}

// idealMeasured is sim.SimulateIdeal's modal outcome restricted to the
// measured logical qubits in ascending order (Outcome.Correct's layout).
func idealMeasured(p *circuit.Circuit) (string, error) {
	bits, _, err := sim.SimulateIdeal(p)
	if err != nil {
		return "", err
	}
	var qs []int
	seen := map[int]bool{}
	for _, g := range p.Gates {
		if g.IsMeasure() && !seen[g.Qubits[0]] {
			seen[g.Qubits[0]] = true
			qs = append(qs, g.Qubits[0])
		}
	}
	sort.Ints(qs)
	out := make([]byte, len(qs))
	for i, q := range qs {
		out[i] = bits[q]
	}
	return string(out), nil
}

// layerShares splits the traced pass's blocking-path time by module.
// Self times come from the spans; the partitioner's and the router's
// time inside the opaque Schedule and Compile calls is attributed from
// their decomposition calls on the same inputs (see README.md) and
// taken out of sched's and core's self time.
func (r *replayer) layerShares() (map[string]time.Duration, time.Duration) {
	self := r.tr.selfTimes()
	layers := map[string]time.Duration{}
	for _, s := range r.tr.spans {
		if s.Decomp || s.module() == "replay" {
			continue
		}
		layers[s.module()] += self[s.ID]
	}
	st := r.stats
	layers["partition"] = st.PartitionInSched + st.PartitionInCompile
	layers["router"] = st.RouterInCompile
	layers["sched"] = max(0, layers["sched"]-st.PartitionInSched)
	layers["core"] = max(0, layers["core"]-st.PartitionInCompile-st.RouterInCompile)
	var total time.Duration
	for _, d := range layers {
		total += d
	}
	return layers, total
}

// spanDurations lists the durations (seconds) of the spans named name.
func (r *replayer) spanDurations(names ...string) []float64 {
	var out []float64
	for _, s := range r.tr.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s.dur().Seconds())
			}
		}
	}
	return out
}

// communityBuild times an uncached hierarchy-tree build per backend
// (reps each) and returns the median.
func (r *replayer) communityBuild(reps int) float64 {
	var ts []float64
	for _, c := range r.comps {
		for range reps {
			t0 := time.Now()
			community.Build(c.Device, c.Omega)
			ts = append(ts, time.Since(t0).Seconds())
		}
	}
	return median(ts)
}

func writeSpans(r *replayer, path string) {
	if err := r.tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
}
