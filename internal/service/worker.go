package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/arch"
	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/quos"
	"repro/internal/sched"
)

// Circuit-breaker states. A worker's breaker is "closed" in normal
// operation; BreakerThreshold consecutive batch failures open it, the
// backend drains for BreakerCooldown, then a single half-open probe
// batch decides between closing (healthy again) and re-opening.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// breaker is one worker's circuit-breaker bookkeeping.
type breaker struct {
	state    string    // breakerClosed / breakerOpen / breakerHalfOpen
	fails    int       // consecutive batch failures
	opens    int64     // cumulative trips
	openedAt time.Time // when it last opened
}

// worker owns one backend device: it claims EPST batches from the
// shared queue, compiles and simulates them, and writes results back.
// Mutable fields (eps, busy, counters, trace, breaker) are guarded by
// Service.mu; comp, ctrl, and the seed counter are touched only by the
// worker's own goroutine, so each worker is deterministic and
// race-free without sharing any random state.
//
// The worker loop is panic-isolated: a panic while claiming fails only
// the head job, a panic while executing fails only the claimed batch,
// and in both cases the loop keeps serving. Batch execution runs under
// the Config.BatchTimeout deadline, transient failures retry with
// capped deterministic backoff, and repeated failures trip the
// breaker so a miscalibrated backend drains instead of crash-looping.
type worker struct {
	svc   *Service
	index int
	dev   *arch.Device
	comp  *core.Compiler
	ctrl  *quos.Controller // nil under PolicyStatic
	seed  int64            // per-worker deterministic seed counter

	eps            float64                // guarded by svc.mu
	busy           bool                   // guarded by svc.mu
	jobsDone       int64                  // guarded by svc.mu
	batchesDone    int64                  // guarded by svc.mu
	cacheHits      int64                  // guarded by svc.mu
	cacheMisses    int64                  // guarded by svc.mu
	cacheCoalesced int64                  // guarded by svc.mu
	trace          []cloudsim.BatchRecord // guarded by svc.mu
	schedErrs      int64                  // guarded by svc.mu
	lastSchedErr   string                 // guarded by svc.mu
	brk            breaker                // guarded by svc.mu
	dispatched     int64                  // guarded by svc.mu; jobs routed here by the dispatcher
	migrated       int64                  // guarded by svc.mu; jobs moved away after this breaker opened
	ewma           fleet.EWMA             // guarded by svc.mu; smoothed per-job service seconds
}

// newWorker wires a worker for the device.
func newWorker(s *Service, index int, dev *arch.Device) *worker {
	comp := core.NewCompiler(dev)
	comp.Attempts = s.cfg.Attempts
	comp.Workers = s.cfg.Workers
	w := &worker{
		svc:   s,
		index: index,
		dev:   dev,
		comp:  comp,
		seed:  s.cfg.Seed + int64(index)*1_000_003,
		eps:   s.cfg.Epsilon,
		brk:   breaker{state: breakerClosed},
		ewma:  fleet.NewEWMA(0.3),
	}
	if s.cfg.Policy == PolicyAdaptive {
		qcfg := quos.DefaultConfig()
		qcfg.InitialEpsilon = s.cfg.Epsilon
		qcfg.Lookahead = s.cfg.Lookahead
		qcfg.MaxColocate = s.cfg.MaxColocate
		w.ctrl = quos.NewController(qcfg)
	}
	return w
}

// nextSeed returns a fresh deterministic simulation seed; only the
// worker goroutine calls it.
func (w *worker) nextSeed() int64 {
	w.seed++
	return w.seed
}

// run is the worker loop: wait out the breaker, claim a batch, execute
// it, repeat until the service drains (or is forced to stop). Panics
// in either phase are recovered so one pathological batch can never
// silence the backend.
func (w *worker) run(ctx context.Context) {
	defer w.svc.wg.Done()
	for {
		if !w.breakerWait(ctx) {
			return
		}
		batch, exit := w.claimIsolated(ctx)
		if exit {
			return
		}
		if batch == nil {
			continue // claim panic recovered; head job failed
		}
		w.executeIsolated(ctx, batch)
	}
}

// breakerWait blocks while this worker's breaker is open, until the
// cooldown elapses (transitioning to half-open for one probe batch) or
// the service shuts down. It returns false when the worker should
// exit (forced stop). Draining bypasses the cooldown: the backend
// probes immediately so shutdown is never delayed by an open breaker.
func (w *worker) breakerWait(ctx context.Context) bool {
	s := w.svc
	for {
		s.mu.Lock()
		if s.forced {
			s.mu.Unlock()
			return false
		}
		if w.brk.state != breakerOpen {
			s.mu.Unlock()
			return true
		}
		wait := s.cfg.BreakerCooldown - time.Since(w.brk.openedAt)
		if wait <= 0 || s.draining {
			w.brk.state = breakerHalfOpen
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		sleepInterruptible(ctx, s.stopCh, wait)
	}
}

// claimIsolated runs claim behind a recover: a panic while selecting a
// batch (scheduler invariant violation, injected chaos) fails the
// oldest fitting job — so the queue cannot livelock on a poison job —
// and the loop continues. exit is true when the worker should stop.
func (w *worker) claimIsolated(ctx context.Context) (batch []*job, exit bool) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			w.failHead(fmt.Sprintf("claim panic: %v", r))
			batch, exit = nil, false
		}
	}()
	batch = w.claim(ctx)
	return batch, batch == nil
}

// claim blocks until jobs the dispatcher routed to this backend are
// queued, then selects the next EPST batch among them and removes it
// from the queue. It returns nil when the worker should exit: the
// service is draining and holds nothing assigned here, or a forced
// stop was requested.
func (w *worker) claim(ctx context.Context) []*job {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	var cands []*job
	for {
		if s.forced {
			return nil
		}
		cands = cands[:0]
		for _, j := range s.queue {
			if j.assigned == w.index {
				cands = append(cands, j)
			}
		}
		if len(cands) > 0 {
			break
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}

	// Scheduling happens under the service lock, which keeps
	// claim/requeue linearizable across workers. Only the head batch is
	// formed (sched.Next): on a full 10-job window of Table I tiny
	// programs it costs ~0.7 ms on ibmq16 and ~1.5 ms on tokyo on one
	// 2.1 GHz Xeon core.
	look := len(cands)
	if look > s.cfg.Lookahead {
		look = s.cfg.Lookahead
	}
	sjobs := make([]sched.Job, look)
	for i, j := range cands[:look] {
		sjobs[i] = j.item.SchedJob()
	}
	scfg := sched.Config{
		Epsilon:     w.eps,
		Lookahead:   s.cfg.Lookahead,
		MaxColocate: s.cfg.MaxColocate,
		Omega:       omegaFor(w.dev),
	}
	selected := map[int]bool{}
	// The schedule fault hook fires here in claim (not inside
	// scheduleSafe's recover) so an injected panic unwinds into
	// claimIsolated and exercises the failHead path.
	var next sched.Batch
	err := s.cfg.Faults.Visit(ctx, faultinject.SiteSchedule)
	if err == nil {
		next, err = w.scheduleSafe(sjobs, scfg)
	}
	if err == nil && len(next.JobIDs) > 0 {
		for _, id := range next.JobIDs {
			selected[id] = true
		}
	} else {
		// Head-of-line fallback: the oldest fitting job runs alone. A
		// scheduler error must not be silent — record it for
		// BackendStatus and the metrics snapshot.
		if err != nil {
			w.schedErrs++
			w.lastSchedErr = err.Error()
			s.metrics.SchedulerErrors.Inc()
		}
		selected[cands[0].rec.Seq] = true
	}

	var batch []*job
	rest := s.queue[:0]
	for _, j := range s.queue {
		if selected[j.rec.Seq] {
			batch = append(batch, j)
		} else {
			rest = append(rest, j)
		}
	}
	s.queue = rest

	now := time.Now()
	seqs := make([]int, len(batch))
	for i, j := range batch {
		seqs[i] = j.rec.Seq
	}
	for _, j := range batch {
		j.rec.Backend = w.dev.Name
		j.rec.CoJobs = seqs
		// WaitSeconds accumulates across requeues (co-location fallback,
		// migration): each claim adds only the time since the job last
		// entered the queue, and QueueLatency is observed once per job —
		// a requeued job must not be double-counted.
		j.rec.WaitSeconds += now.Sub(j.lastQueued).Seconds()
		j.claimed = now
		if !j.waitObserved {
			j.waitObserved = true
			s.observeLatency(s.metrics.QueueLatency, j.rec.WaitSeconds)
		}
		s.setStateLocked(j, StateBatched)
		s.dequeuedLocked(j)
		// Advance the WFQ virtual clock to the claimed work's start tag
		// so an idle tenant's next job restarts at the current virtual
		// time instead of draining accumulated credit.
		if j.vstart > s.vtime {
			s.vtime = j.vstart
		}
	}
	w.busy = true
	s.metrics.QueueDepth.Set(int64(len(s.queue)))
	s.metrics.InFlight.Add(int64(len(batch)))
	return batch
}

// scheduleSafe forms the next EPST batch with panic containment: a
// scheduler panic becomes an error handled by the head-of-line
// fallback instead of unwinding claim. Called with Service.mu held
// (the schedule pass is part of the linearized claim).
func (w *worker) scheduleSafe(sjobs []sched.Job, scfg sched.Config) (next sched.Batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			next, err = sched.Batch{}, fmt.Errorf("scheduler panic: %v", r)
		}
	}()
	return sched.Next(w.dev, sjobs, scfg)
}

// failHead marks the oldest queued job assigned to this backend failed
// (the claim-panic recovery path: without removing a job the loop
// would re-panic on the same queue head forever).
func (w *worker) failHead(msg string) {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range s.queue {
		if j.assigned != w.index {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		j.rec.Error = msg
		j.rec.Backend = w.dev.Name
		s.setStateLocked(j, StateFailed)
		s.dequeuedLocked(j)
		s.markTerminalLocked(j)
		s.metrics.JobsFailed.Inc()
		s.observeLatency(s.metrics.TotalLatency, time.Since(j.rec.SubmittedAt).Seconds())
		s.metrics.QueueDepth.Set(int64(len(s.queue)))
		return
	}
}

// requeueFront returns unexecuted jobs to the queue (used when a
// co-located compilation falls back to running the head alone). The
// jobs stay assigned to this backend, so Backend is kept; only the
// batch membership is undone. Each job re-enters at its original WFQ
// position — the sorted insert lands it where it sat before the claim
// relative to everything still queued — and its wait clock restarts so
// the next claim adds only the new queueing time.
func (w *worker) requeueFront(tail []*job) {
	s := w.svc
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range tail {
		j.rec.CoJobs = nil
		j.lastQueued = now
		s.setStateLocked(j, StateQueued)
		s.enqueueLocked(j)
	}
	s.metrics.InFlight.Add(-int64(len(tail)))
	s.cond.Broadcast()
}

// executeIsolated drives one claimed batch through the retrying
// executor behind a last-resort recover: whatever escapes the
// per-phase isolation fails the batch (in its current, possibly
// fallback-shrunk form) with the recovered message, and the worker
// loop stays alive.
func (w *worker) executeIsolated(ctx context.Context, batch []*job) {
	cur := batch
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			w.fail(cur, fmt.Errorf("worker panic: %v", r))
			w.breakerFailure()
		}
	}()
	w.execute(ctx, &cur)
}

// execute runs the batch, retrying transient failures with capped
// deterministic backoff (base<<attempt, capped at RetryMaxDelay) and
// feeding the circuit breaker. curp tracks the live batch: the
// co-location fallback inside an attempt may shrink it.
func (w *worker) execute(ctx context.Context, curp *[]*job) {
	s := w.svc
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := w.attempt(ctx, curp)
		if err == nil {
			w.breakerSuccess()
			return
		}
		lastErr = err
		if attempt >= s.cfg.MaxRetries || !isTransient(err) {
			break
		}
		s.metrics.BatchRetries.Inc()
		sleepInterruptible(ctx, s.stopCh, backoffDelay(s.cfg, attempt))
	}
	if errors.Is(lastErr, context.DeadlineExceeded) {
		s.metrics.BatchTimeouts.Inc()
		lastErr = fmt.Errorf("batch deadline (%s) exceeded: %w", s.cfg.BatchTimeout, lastErr)
	}
	w.fail(*curp, lastErr)
	w.breakerFailure()
}

// attempt is one full compile+simulate pass over the live batch under
// the per-batch deadline, which descends from the service's run
// context so a forced shutdown cancels the attempt mid-flight. On
// success it records results and returns nil; any error leaves the
// batch claimed for the caller's retry/fail decision.
func (w *worker) attempt(ctx context.Context, curp *[]*job) error {
	s := w.svc
	batch := *curp
	if s.cfg.BatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.BatchTimeout)
		defer cancel()
	}

	start := time.Now()
	progs := make([]*circuit.Circuit, len(batch))
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, j := range batch {
			s.setStateLocked(j, StateCompiling)
			progs[i] = j.item.Circ
		}
	}()

	m := s.metrics
	strat := strategyFor(len(batch))
	res, err := w.compile(ctx, progs, strat)
	s.observeLatency(m.CompileLatency, time.Since(start).Seconds())
	if err != nil && len(batch) > 1 && ctx.Err() == nil {
		// Co-location failed after all: put the tail back and run the
		// head alone, as the offline cloudsim does. The fallback
		// retry's duration is measured on its own — the failed
		// co-located attempt must not inflate its compile latency.
		m.FallbackBatches.Inc()
		w.requeueFront(batch[1:])
		batch, progs = batch[:1], progs[:1]
		*curp = batch
		strat = core.Separate
		retryStart := time.Now()
		res, err = w.compile(ctx, progs, strat)
		s.observeLatency(m.CompileLatency, time.Since(retryStart).Seconds())
	}
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}

	simStart := time.Now()
	psts, err := w.simulate(ctx, res)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	if s.cfg.ExecDwell > 0 {
		// Emulated hardware occupancy (see Config.ExecDwell): the
		// backend stays busy for the dwell as a real QPU would across
		// its shots.
		time.Sleep(s.cfg.ExecDwell)
	}
	executed := time.Now()
	// Guard the average before it reaches the adaptive controller: a
	// count mismatch or non-finite PST would poison epsilon adaptation
	// with NaN forever after.
	avg, err := batchAvgPST(psts, len(batch))
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}

	// Adaptive control: compare achieved fidelity to the
	// separate-execution estimate and let the controller move epsilon.
	var newEps float64
	adapted := false
	if w.ctrl != nil {
		if sepEst, estErr := quos.SeparateEstimateContext(ctx, w.comp, progs, s.cfg.Noise); estErr == nil {
			w.ctrl.Observe(len(progs) > 1, avg, sepEst)
			newEps = w.ctrl.Epsilon()
			adapted = true
		}
	}

	qubits := 0
	for _, p := range progs {
		qubits += p.NumQubits
	}
	seqs := make([]int, len(batch))
	for i, j := range batch {
		seqs[i] = j.rec.Seq
	}
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, j := range batch {
			j.rec.PST = psts[i]
			j.rec.ServiceSeconds = executed.Sub(j.claimed).Seconds()
			s.setStateLocked(j, StateDone)
			s.markTerminalLocked(j)
		}
		if adapted {
			w.eps = newEps
		}
		w.busy = false
		w.jobsDone += int64(len(batch))
		w.batchesDone++
		// Feed the dispatcher's wait estimator: the batch's wall time
		// amortized over its jobs approximates per-job service cost.
		w.ewma.Observe(executed.Sub(start).Seconds() / float64(len(batch)))
		w.trace = append(w.trace, cloudsim.BatchRecord{
			JobIDs:     seqs,
			Start:      start.Sub(s.start).Seconds(),
			Finish:     executed.Sub(s.start).Seconds(),
			Depth:      res.Depth,
			CNOTs:      res.CNOTs,
			Strategy:   strat,
			QubitsUsed: qubits,
		})
		if len(w.trace) > s.cfg.TraceDepth {
			w.trace = w.trace[len(w.trace)-s.cfg.TraceDepth:]
		}
	}()

	m.BatchesExecuted.Inc()
	m.BatchSize.Observe(float64(len(batch)))
	if len(batch) > 1 {
		m.ColocatedBatches.Inc()
		m.ColocatedJobs.Add(int64(len(batch)))
	}
	s.observeLatency(m.ExecLatency, executed.Sub(simStart).Seconds())
	m.InFlight.Add(-int64(len(batch)))
	for i, j := range batch {
		m.JobsCompleted.Inc()
		s.observeLatency(m.TotalLatency, executed.Sub(j.rec.SubmittedAt).Seconds())
		m.PST.Observe(psts[i])
	}
	return nil
}

// compile runs one batch compilation with fault injection and panic
// containment: a compiler panic fails the batch with the recovered
// message instead of unwinding the worker. The compile goes through
// the service-wide result cache (nil when disabled): a fingerprint hit
// skips the pipeline, and identical batches compiling concurrently on
// other workers coalesce onto one compilation. Panics from the cache's
// own hooks surface here too, so a faulted cache can never unwind the
// worker loop.
func (w *worker) compile(ctx context.Context, progs []*circuit.Circuit, strat core.Strategy) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			res, err = nil, fmt.Errorf("compiler panic: %v", r)
		}
	}()
	if err := w.svc.cfg.Faults.Visit(ctx, faultinject.SiteCompile); err != nil {
		return nil, err
	}
	start := time.Now()
	res, outcome, err := w.comp.CompileCachedContext(ctx, w.svc.cache, progs, strat)
	w.recordCacheOutcome(outcome, time.Since(start).Seconds())
	return res, err
}

// recordCacheOutcome feeds one cached-compile outcome into the shared
// registry and the per-worker counters shown in /v1/backends. Lookup
// latency is recorded only when the cache actually served the result
// (hit or coalesced) — a miss's duration is the compile itself, which
// CompileLatency already measures.
func (w *worker) recordCacheOutcome(outcome ccache.Outcome, seconds float64) {
	m := w.svc.metrics
	switch outcome {
	case ccache.OutcomeHit:
		m.CacheHits.Inc()
		w.svc.observeLatency(m.CacheLookup, seconds)
	case ccache.OutcomeMiss:
		m.CacheMisses.Inc()
	case ccache.OutcomeCoalesced:
		m.CacheCoalesced.Inc()
		w.svc.observeLatency(m.CacheLookup, seconds)
	default:
		return // bypass: caching disabled or faulted out of this call
	}
	w.svc.mu.Lock()
	defer w.svc.mu.Unlock()
	switch outcome {
	case ccache.OutcomeHit:
		w.cacheHits++
	case ccache.OutcomeMiss:
		w.cacheMisses++
	case ccache.OutcomeCoalesced:
		w.cacheCoalesced++
	}
}

// simulate runs the compiled batch with fault injection and panic
// containment, under the batch deadline.
func (w *worker) simulate(ctx context.Context, res *core.Result) (psts []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.svc.metrics.PanicsRecovered.Inc()
			psts, err = nil, fmt.Errorf("simulator panic: %v", r)
		}
	}()
	if err := w.svc.cfg.Faults.Visit(ctx, faultinject.SiteSimulate); err != nil {
		return nil, err
	}
	return w.comp.SimulateContext(ctx, res, w.svc.cfg.Trials, w.nextSeed(), w.svc.cfg.Noise)
}

// batchAvgPST averages the per-program PSTs, rejecting the count
// mismatches and non-finite values that would otherwise feed NaN into
// quos epsilon adaptation.
func batchAvgPST(psts []float64, want int) (float64, error) {
	if len(psts) == 0 || len(psts) != want {
		return 0, fmt.Errorf("internal: simulator returned %d PSTs for %d programs", len(psts), want)
	}
	sum := 0.0
	for i, p := range psts {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return 0, fmt.Errorf("internal: simulator returned non-finite PST %v for program %d", p, i)
		}
		sum += p
	}
	return sum / float64(len(psts)), nil
}

// fail marks every job in the batch failed.
func (w *worker) fail(batch []*job, err error) {
	s := w.svc
	now := time.Now()
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range batch {
			j.rec.Error = err.Error()
			j.rec.ServiceSeconds = now.Sub(j.claimed).Seconds()
			s.setStateLocked(j, StateFailed)
			s.markTerminalLocked(j)
		}
		w.busy = false
		w.batchesDone++
	}()
	s.metrics.BatchesExecuted.Inc()
	s.metrics.BatchSize.Observe(float64(len(batch)))
	s.metrics.InFlight.Add(-int64(len(batch)))
	for _, j := range batch {
		s.metrics.JobsFailed.Inc()
		s.observeLatency(s.metrics.TotalLatency, now.Sub(j.rec.SubmittedAt).Seconds())
	}
}

// breakerSuccess records a successful batch: the failure streak resets
// and a half-open probe (or a drain-bypass probe) closes the breaker.
func (w *worker) breakerSuccess() {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.brk.state != breakerClosed {
		w.brk.state = breakerClosed
		s.metrics.OpenBreakers.Add(-1)
	}
	w.brk.fails = 0
}

// breakerFailure records a failed batch: a failed half-open probe
// re-opens immediately; BreakerThreshold consecutive failures trip a
// closed breaker. A threshold of 0 disables the breaker.
func (w *worker) breakerFailure() {
	s := w.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	w.brk.fails++
	switch w.brk.state {
	case breakerHalfOpen:
		w.brk.state = breakerOpen
		w.brk.openedAt = time.Now()
		w.brk.opens++
		s.metrics.BreakerTrips.Inc()
		s.migrateLocked(w)
	case breakerClosed:
		if s.cfg.BreakerThreshold > 0 && w.brk.fails >= s.cfg.BreakerThreshold {
			w.brk.state = breakerOpen
			w.brk.openedAt = time.Now()
			w.brk.opens++
			s.metrics.BreakerTrips.Inc()
			s.metrics.OpenBreakers.Add(1)
			s.migrateLocked(w)
		}
	}
}

// isTransient reports whether the error advertises itself as
// retryable via a Transient() bool method (net.Error style; the
// fault-injection harness' burst errors do).
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// backoffDelay is the deterministic capped retry backoff for the
// zero-based attempt number: RetryBaseDelay << attempt, capped at
// RetryMaxDelay.
func backoffDelay(cfg Config, attempt int) time.Duration {
	if attempt > 30 {
		return cfg.RetryMaxDelay
	}
	d := cfg.RetryBaseDelay << uint(attempt)
	if d <= 0 || d > cfg.RetryMaxDelay {
		d = cfg.RetryMaxDelay
	}
	return d
}

// sleepInterruptible sleeps for d or until stop closes or ctx is
// cancelled, whichever comes first.
func sleepInterruptible(ctx context.Context, stop <-chan struct{}, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	case <-ctx.Done():
	}
}

// statusLocked assembles the worker's BackendStatus; callers hold
// Service.mu.
func (w *worker) statusLocked() BackendStatus {
	return BackendStatus{
		Name:            w.dev.Name,
		Qubits:          w.dev.NumQubits(),
		Policy:          w.svc.cfg.Policy,
		Epsilon:         w.eps,
		Busy:            w.busy,
		JobsCompleted:   w.jobsDone,
		BatchesExecuted: w.batchesDone,
		Cache: CacheCounters{
			Hits:      w.cacheHits,
			Misses:    w.cacheMisses,
			Coalesced: w.cacheCoalesced,
		},
		Breaker: BreakerStatus{
			State:               w.brk.state,
			ConsecutiveFailures: w.brk.fails,
			Opens:               w.brk.opens,
		},
		SchedulerErrors: w.schedErrs,
		LastSchedError:  w.lastSchedErr,
		RecentBatches:   append([]cloudsim.BatchRecord(nil), w.trace...),
	}
}
