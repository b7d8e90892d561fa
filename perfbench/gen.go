package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// sentJob is the generator's record of one submission.
type sentJob struct {
	Spec      jobSpec
	Due       time.Time // when the job was due to be sent
	Sent      time.Time // when the POST actually started
	SubmitLat float64   // client-timed POST latency, seconds
	Status    int
	ID        string
	Seq       int
	// ResendStatus/ResendID answer the idempotent resend, when made.
	ResendStatus int
	ResendID     string
}

func (s *sentJob) accepted() bool { return s.Status == http.StatusAccepted }

// submit POSTs one job (and its idempotent resend, when due) over c.
func submit(c *client, w *workload, s *sentJob) {
	key := ""
	if s.Spec.Tenant >= 0 {
		key = w.Tenants[s.Spec.Tenant].Key
	}
	body, _ := json.Marshal(map[string]string{"name": s.Spec.Prog.Name, "qasm": s.Spec.Prog.QASM})
	s.Sent = time.Now()
	status, data, lat, err := c.do(http.MethodPost, "/v1/jobs", key, s.Spec.Idem, body)
	s.SubmitLat = lat.Seconds()
	if err != nil {
		return // Status 0: refused
	}
	s.Status = status
	var rec jobRecord
	if status == http.StatusAccepted && json.Unmarshal(data, &rec) == nil {
		s.ID, s.Seq = rec.ID, rec.Seq
	}
	if s.Spec.Resend && s.accepted() {
		status, data, _, err := c.do(http.MethodPost, "/v1/jobs", key, s.Spec.Idem, body)
		if err == nil {
			s.ResendStatus = status
			var again jobRecord
			if json.Unmarshal(data, &again) == nil {
				s.ResendID = again.ID
			}
		}
	}
}

// depthSample is one /v1/fleet reading: queued jobs per backend.
type depthSample struct {
	At     time.Time
	Depths map[string]int
}

func (d depthSample) total() int {
	n := 0
	for _, v := range d.Depths {
		n += v
	}
	return n
}

// statusReq is one job's status read, made once At has passed.
type statusReq struct {
	ID, Key string
	At      time.Time
}

// poller owns the read connection. It pages through GET /v1/jobs to
// learn terminal states, samples /v1/fleet queue depths, and makes the
// one status read per job the workload asks for. Every one of these
// GETs is a read sample for read_p99_s.
type poller struct {
	c        *client
	keys     []string // one listing scope per key; "" in open mode
	interval time.Duration
	status   chan statusReq // buffered to the phase's send count
	due      []statusReq    // status reads not yet made; owned by the polling goroutine

	mu   sync.Mutex
	recs map[int]jobRecord // guarded by mu; by seq
	// pendingAt is the start of the last listing that showed a job
	// non-terminal, terminalAt the end of the first that showed it
	// terminal: bounds on its terminal instant. Both guarded by mu.
	pendingAt  map[int]time.Time
	terminalAt map[int]time.Time
	cursor     []int          // guarded by mu; per scope "after" seq
	pending    []map[int]bool // guarded by mu; per scope non-terminal seqs
	terminals  int            // guarded by mu
	readLat    []float64      // guarded by mu; every GET's client-timed latency
	depths     []depthSample  // guarded by mu
	errs       int            // guarded by mu
}

func newPoller(c *client, keys []string, after int, statusCap int) *poller {
	p := &poller{
		c:          c,
		keys:       keys,
		interval:   100 * time.Millisecond,
		status:     make(chan statusReq, statusCap),
		recs:       map[int]jobRecord{},
		pendingAt:  map[int]time.Time{},
		terminalAt: map[int]time.Time{},
	}
	for range keys {
		p.cursor = append(p.cursor, after)
		p.pending = append(p.pending, map[int]bool{})
	}
	return p
}

// run polls until ctx is done.
func (p *poller) run(ctx context.Context) {
	lastFleet := time.Time{}
	for scope := 0; ; scope = (scope + 1) % len(p.keys) {
		p.readStatuses(false)
		p.list(scope)
		if time.Since(lastFleet) >= 250*time.Millisecond {
			lastFleet = time.Now()
			p.sampleFleet()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(p.interval):
		}
	}
}

// readStatuses makes the status reads that are due (all of them when
// final is set).
func (p *poller) readStatuses(final bool) {
	for drained := false; !drained; {
		select {
		case r := <-p.status:
			p.due = append(p.due, r)
		default:
			drained = true
		}
	}
	now := time.Now()
	rest := p.due[:0]
	for _, r := range p.due {
		if !final && r.At.After(now) {
			rest = append(rest, r)
			continue
		}
		status, _, lat, err := p.c.do(http.MethodGet, "/v1/jobs/"+r.ID, r.Key, "", nil)
		p.mu.Lock()
		if err != nil || status != http.StatusOK {
			p.errs++
		} else {
			p.readLat = append(p.readLat, lat.Seconds())
		}
		p.mu.Unlock()
	}
	p.due = rest
}

// list reads one scope's records after its cursor, page by page.
func (p *poller) list(scope int) {
	const limit = 2048
	for {
		p.mu.Lock()
		after := p.cursor[scope]
		p.mu.Unlock()
		var page []jobRecord
		t0 := time.Now()
		lat, err := p.c.getJSON("/v1/jobs?limit="+strconv.Itoa(limit)+"&after="+strconv.Itoa(after), p.keys[scope], &page)
		p.mu.Lock()
		if err != nil {
			p.errs++
			p.mu.Unlock()
			return
		}
		p.readLat = append(p.readLat, lat.Seconds())
		t1 := t0.Add(lat)
		maxSeq := after
		for _, r := range page {
			prev, seen := p.recs[r.Seq]
			p.recs[r.Seq] = r
			if r.terminal() {
				delete(p.pending[scope], r.Seq)
				if !seen || !prev.terminal() {
					p.terminals++
					p.terminalAt[r.Seq] = t1
				}
			} else {
				p.pending[scope][r.Seq] = true
				p.pendingAt[r.Seq] = t0
			}
			maxSeq = max(maxSeq, r.Seq)
		}
		next := maxSeq
		for s := range p.pending[scope] {
			next = min(next, s-1)
		}
		p.cursor[scope] = next
		p.mu.Unlock()
		if len(page) < limit {
			return
		}
	}
}

func (p *poller) sampleFleet() {
	var f fleetDoc
	lat, err := p.c.getJSON("/v1/fleet", p.keys[0], &f)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.errs++
		return
	}
	p.readLat = append(p.readLat, lat.Seconds())
	s := depthSample{At: time.Now(), Depths: map[string]int{}}
	for _, d := range f.Devices {
		s.Depths[d.Name] = d.QueueDepth
	}
	p.depths = append(p.depths, s)
}

// sweep lists every scope to completion once more (after polling
// stopped) so the final states of all records are known.
func (p *poller) sweep() {
	for scope := range p.keys {
		p.list(scope)
	}
}

func (p *poller) terminalCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.terminals
}

func (p *poller) record(seq int) (jobRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.recs[seq]
	return r, ok
}

// finished is a terminal job's terminal instant: the daemon's own
// reconstruction (admission + queue wait + service), clamped into the
// window the listings bound it to. The clamp matters for a job that
// co-location fallback requeued: its failed first attempt is in
// neither its wait nor its last service time. clamped reports that the
// reconstruction fell outside the window.
func (p *poller) finished(r jobRecord) (at time.Time, clamped bool) {
	p.mu.Lock()
	lo, hasLo := p.pendingAt[r.Seq]
	hi, hasHi := p.terminalAt[r.Seq]
	p.mu.Unlock()
	at = r.finished()
	switch {
	case hasLo && at.Before(lo):
		return lo, true
	case hasHi && at.After(hi):
		return hi, true
	}
	return at, false
}

// phase is one measured stretch of traffic: a rate step of the
// open-loop sweep.
type phase struct {
	Rate   float64 // offered jobs/s
	Start  time.Time
	Sent   []*sentJob
	Cut    bool // the bounded drain gave up with jobs unfinished
	End    time.Time
	M0, M1 metricsDoc
	// CPU0, CPU1 are the daemon's CPU seconds when M0 and M1 were read.
	CPU0, CPU1 float64
	Poll       *poller
	Stats      phaseStats // set once the phase has drained
}

func scopes(w *workload) []string {
	if len(w.Tenants) == 0 {
		return []string{""}
	}
	keys := make([]string, len(w.Tenants))
	for i, t := range w.Tenants {
		keys[i] = t.Key
	}
	return keys
}

// runPhase drives one open-loop phase, sending each job at its due
// time. It returns once every accepted job is terminal or the drain
// bound expired.
func runPhase(d *daemon, w *workload, jobs []jobSpec, rate float64) (*phase, error) {
	sub, rd := newClient(d.base), newClient(d.base)
	defer sub.close()
	defer rd.close()
	keys := scopes(w)
	ph := &phase{Rate: rate}
	if _, err := rd.getJSON("/metrics", keys[0], &ph.M0); err != nil {
		return nil, err
	}
	var err error
	if ph.CPU0, err = d.cpuSeconds(); err != nil {
		return nil, err
	}
	p := newPoller(rd, keys, int(ph.M0.Jobs.Accepted)-1, len(jobs))
	ph.Poll = p
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.run(ctx)
	}()

	ph.Start = time.Now()
	accepted := 0
	for _, spec := range jobs {
		s := &sentJob{Spec: spec, Due: ph.Start.Add(spec.Offset)}
		if wait := time.Until(s.Due); wait > 0 {
			time.Sleep(wait)
		}
		submit(sub, w, s)
		ph.Sent = append(ph.Sent, s)
		if s.accepted() {
			accepted++
			if w.StatusReads {
				p.status <- statusReq{ID: s.ID, Key: keyOf(w, spec), At: s.Sent.Add(spec.ReadDelay)}
			}
		}
	}

	drainEnd := time.Now().Add(drain)
	for p.terminalCount() < accepted && time.Now().Before(drainEnd) {
		time.Sleep(10 * time.Millisecond)
	}
	ph.End = time.Now()
	cancel()
	wg.Wait()
	p.readStatuses(true)
	p.sweep()
	ph.Cut = p.terminalCount() < accepted
	if _, err := rd.getJSON("/metrics", keys[0], &ph.M1); err != nil {
		return nil, err
	}
	if ph.CPU1, err = d.cpuSeconds(); err != nil {
		return nil, err
	}
	ph.Stats = ph.stats()
	return ph, nil
}

func keyOf(w *workload, spec jobSpec) string {
	if spec.Tenant < 0 {
		return ""
	}
	return w.Tenants[spec.Tenant].Key
}

// phaseStats summarizes a phase from the generator's sends and the
// daemon's records.
type phaseStats struct {
	Acc        accounting
	JobsPerS   float64
	CPUPerJob  float64 // daemon CPU seconds per completed job
	LatP50     float64
	LatTail    float64
	LatQ       float64
	SubmitTail float64
	ReadTail   float64
	LateTail   float64
	MeanPST    float64
	TRF        float64
	Waits      []float64
	PSTs       []float64
	Backends   map[string]int
	Clamped    int // terminal instants the listings had to correct
	Pass       bool
	Growing    bool
}

func (ph *phase) stats() phaseStats {
	var st phaseStats
	st.Backends = map[string]int{}
	outs := make([]jobOutcome, 0, len(ph.Sent))
	var submits, lates []float64
	last := ph.Start
	censor := ph.End
	for _, s := range ph.Sent {
		submits = append(submits, s.SubmitLat)
		lates = append(lates, s.Sent.Sub(s.Due).Seconds())
		o := jobOutcome{Refused: !s.accepted()}
		if !o.Refused {
			if r, ok := ph.Poll.record(s.Seq); ok && r.terminal() {
				o.Done, o.Failed = r.State == "done", r.State == "failed"
				fin, clamped := ph.Poll.finished(r)
				if clamped {
					st.Clamped++
				}
				o.Latency = fin.Sub(s.Due).Seconds()
				if fin.After(last) {
					last = fin
				}
				if o.Done {
					st.PSTs = append(st.PSTs, r.PST)
					st.Waits = append(st.Waits, r.WaitSeconds)
					st.Backends[r.Backend]++
				}
			}
		}
		outs = append(outs, o)
	}
	st.Acc = account(outs)
	if span := last.Sub(ph.Start).Seconds(); span > 0 {
		st.JobsPerS = float64(st.Acc.Done) / span
	}
	// Reported latencies count every miss at its censoring time (due to
	// the end of the drain), a finite lower bound on its latency.
	lats := make([]float64, len(st.Acc.Latencies))
	for i, l := range st.Acc.Latencies {
		if math.IsInf(l, 1) {
			l = censor.Sub(ph.Sent[i].Due).Seconds()
		}
		lats[i] = l
	}
	st.LatP50 = median(lats)
	st.LatTail, st.LatQ = tail(lats)
	st.SubmitTail, _ = tail(submits)
	st.LateTail, _ = tail(lates)
	ph.Poll.mu.Lock()
	st.ReadTail, _ = tail(ph.Poll.readLat)
	depths := append([]depthSample(nil), ph.Poll.depths...)
	ph.Poll.mu.Unlock()
	st.MeanPST = mean(st.PSTs)
	if n := ph.M1.Jobs.Completed - ph.M0.Jobs.Completed; n > 0 {
		st.CPUPerJob = (ph.CPU1 - ph.CPU0) / float64(n)
	}
	if b := ph.M1.Batches.Executed - ph.M0.Batches.Executed; b > 0 {
		st.TRF = float64(ph.M1.Jobs.Completed+ph.M1.Jobs.Failed-ph.M0.Jobs.Completed-ph.M0.Jobs.Failed) / float64(b)
	}
	st.Growing = growing(depths, ph.Start, ph.Start.Add(sendWindow(ph)))
	st.Pass = !ph.Cut && !st.Growing && st.Acc.meetsSLO(sloSeconds)
	return st
}

// sendWindow is how long the phase's sender ran.
func sendWindow(ph *phase) time.Duration {
	if len(ph.Sent) == 0 {
		return 0
	}
	return ph.Sent[len(ph.Sent)-1].Due.Sub(ph.Start)
}

// growing reports a backlog that grows through the send window: the
// mean total queue depth over its last quarter exceeds both a full
// scheduler window per backend and twice the mean over its first
// quarter.
func growing(samples []depthSample, start, end time.Time) bool {
	q := end.Sub(start) / 4
	var first, lastQ []float64
	for _, s := range samples {
		switch {
		case s.At.Before(start) || s.At.After(end):
		case s.At.Before(start.Add(q)):
			first = append(first, float64(s.total()))
		case s.At.After(end.Add(-q)):
			lastQ = append(lastQ, float64(s.total()))
		}
	}
	if len(first) == 0 || len(lastQ) == 0 {
		return false
	}
	backendsN := float64(len(samples[0].Depths))
	return mean(lastQ) > lookahead*backendsN && mean(lastQ) > 2*mean(first)
}
