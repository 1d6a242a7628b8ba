package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"tensat"
	"tensat/internal/tenant"
)

// ErrJobStoreFull is returned by SubmitJob when the store holds
// MaxJobs unfinished jobs; transports classify it as backpressure
// (HTTP 429), not a server fault.
var ErrJobStoreFull = errors.New("serve: job store full")

// progressLogCap bounds one job's progress history: the log is a ring
// holding the newest progressLogCap snapshots. Readers that keep up
// see every entry; a reader that falls more than the cap behind (or a
// pathological job publishing tens of thousands of incumbents) skips
// the oldest overwritten entries but always continues receiving the
// live tail.
const progressLogCap = 4096

// progressLog is a bounded broadcast log of progress snapshots:
// writers publish, readers replay from a monotone index and get a
// channel that is closed on the next append (so watchers never miss or
// double-count a delivered entry).
type progressLog struct {
	mu     sync.Mutex
	buf    []tensat.Progress // ring once len == progressLogCap
	total  int               // entries ever published
	notify chan struct{}
}

func (l *progressLog) init() { l.notify = make(chan struct{}) }

func (l *progressLog) publish(p tensat.Progress) {
	l.mu.Lock()
	if len(l.buf) < progressLogCap {
		l.buf = append(l.buf, p)
	} else {
		l.buf[l.total%progressLogCap] = p
	}
	l.total++
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// since returns the entries from monotone index from on (oldest first,
// clamped to what the ring still holds), the index to resume from, and
// the channel that will signal the next append.
func (l *progressLog) since(from int) ([]tensat.Progress, int, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := from
	if lo := l.total - len(l.buf); start < lo {
		start = lo
	}
	var out []tensat.Progress
	if start < l.total {
		out = make([]tensat.Progress, 0, l.total-start)
		for i := start; i < l.total; i++ {
			out = append(out, l.buf[i%progressLogCap])
		}
	}
	return out, l.total, l.notify
}

// latest returns the newest entry (zero Progress when empty).
func (l *progressLog) latest() tensat.Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.total > 0 {
		return l.buf[(l.total-1)%progressLogCap]
	}
	return tensat.Progress{}
}

// JobStatus is the service-level lifecycle state of an asynchronous
// job. It is coarser than tensat.Phase: the fine-grained pipeline
// position (queued/explore/extract) lives in the progress snapshots.
type JobStatus string

const (
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobCanceled JobStatus = "canceled"
	JobFailed   JobStatus = "failed"
)

// Job is one asynchronous optimization tracked by the service: submit
// returns immediately, progress streams through a per-job log (shared
// with any deduplicated siblings), and the result stays queryable for
// the store's TTL after completion.
type Job struct {
	id      string
	created time.Time
	prof    profile
	cancel  context.CancelFunc
	done    chan struct{}
	log     progressLog
	// tenant is the admitting tenant's name ("" when untenanted);
	// degraded records the admission decision — which quota slot the
	// job holds and must release on finish.
	tenant   string
	degraded bool

	mu     sync.Mutex
	status JobStatus
	resp   *Response
	err    error
	doneAt time.Time
}

// ID is the store key, exposed over HTTP as /v1/jobs/{id}.
func (j *Job) ID() string { return j.id }

// Created reports submission time (the job-listing "age" anchor).
func (j *Job) Created() time.Time { return j.created }

// Profile reports the resolved profile names the job runs under.
func (j *Job) Profile() (ruleSet, costModel string) {
	return j.prof.RuleSet, j.prof.CostModel
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the lifecycle state and the latest progress snapshot.
// While the job runs, Elapsed is recomputed from submission time so
// pollers see time advance between pipeline events.
func (j *Job) Status() (JobStatus, tensat.Progress) {
	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	p := j.log.latest()
	if st == JobRunning {
		p.Elapsed = time.Since(j.created)
	}
	return st, p
}

// Outcome returns the job's response and error; both are nil until
// Done is closed.
func (j *Job) Outcome() (*Response, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp, j.err
}

// Cancel aborts a running job; the exploration stops at its next
// check point, the worker slot is freed (unless other requests share
// the run), and the partial result is never cached. Canceling a
// finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// ProgressSince replays the job's progress log from a monotone index,
// returning the entries, the index to resume from, and the channel
// signalling the next append — the primitive the SSE handler streams
// from.
func (j *Job) ProgressSince(from int) ([]tensat.Progress, int, <-chan struct{}) {
	return j.log.since(from)
}

// jobStatusOf classifies a finished job's outcome.
func jobStatusOf(err error) JobStatus {
	switch {
	case err == nil:
		return JobDone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return JobCanceled
	}
	return JobFailed
}

// finish publishes the terminal state exactly once.
func (j *Job) finish(status JobStatus, resp *Response, err error) {
	// Guarantee a terminal entry in the log: runs pumped from a flight
	// already carry one for done/failed, but canceled followers and
	// cache hits do not.
	last := j.log.latest()
	want := tensat.PhaseDone
	switch status {
	case JobCanceled:
		want = tensat.PhaseCanceled
	case JobFailed:
		want = tensat.PhaseFailed
	}
	if last.Phase != want {
		p := last
		p.Phase = want
		if resp != nil && resp.Result != nil {
			p.Iteration = resp.Result.Iterations
			p.ENodes, p.EClasses = resp.Result.ENodes, resp.Result.EClasses
			p.BestCost = resp.Result.OptCost
		}
		p.Elapsed = time.Since(j.created)
		j.log.publish(p)
	}
	j.mu.Lock()
	j.status = status
	j.resp, j.err = resp, err
	j.doneAt = time.Now()
	j.mu.Unlock()
	close(j.done)
	j.cancel() // release the job context's resources
}

// finished reports the completion time (zero while running).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneAt
}

// JobCounters counts the asynchronous job lifecycle.
type JobCounters struct {
	Submitted uint64
	Running   int
	Done      uint64
	Canceled  uint64
	Failed    uint64
}

// jobStore indexes asynchronous jobs by id. It is capacity-capped —
// submissions beyond MaxJobs evict the oldest finished job, or fail
// with ErrJobStoreFull when every held job is still running — and
// TTL-bounded: finished jobs expire ttl after completion.
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*Job
	ttl  time.Duration
	cap  int
}

func newJobStore(capacity int, ttl time.Duration) *jobStore {
	return &jobStore{jobs: make(map[string]*Job), ttl: ttl, cap: capacity}
}

// add registers a new job, purging expired entries and evicting the
// oldest finished job if the store is at capacity.
func (st *jobStore) add(j *Job) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked(time.Now())
	if len(st.jobs) >= st.cap {
		var oldest *Job
		for _, held := range st.jobs {
			at := held.finishedAt()
			if at.IsZero() {
				continue
			}
			if oldest == nil || at.Before(oldest.finishedAt()) {
				oldest = held
			}
		}
		if oldest == nil {
			return ErrJobStoreFull
		}
		delete(st.jobs, oldest.id)
	}
	st.jobs[j.id] = j
	return nil
}

func (st *jobStore) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked(time.Now())
	j, ok := st.jobs[id]
	return j, ok
}

// list snapshots the live (unexpired) jobs, oldest submission first,
// id as the tiebreak so the order is deterministic.
func (st *jobStore) list() []*Job {
	st.mu.Lock()
	st.purgeLocked(time.Now())
	out := make([]*Job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].created.Equal(out[k].created) {
			return out[i].created.Before(out[k].created)
		}
		return out[i].id < out[k].id
	})
	return out
}

func (st *jobStore) purgeLocked(now time.Time) {
	for id, j := range st.jobs {
		if at := j.finishedAt(); !at.IsZero() && now.Sub(at) > st.ttl {
			delete(st.jobs, id)
		}
	}
}

// purge drops the finished jobs whose TTL has elapsed.
func (st *jobStore) purge() {
	st.mu.Lock()
	st.purgeLocked(time.Now())
	st.mu.Unlock()
}

// newJobID returns a 16-hex-char random job id.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// SubmitJob validates the request synchronously (bad options and
// malformed graphs fail here, before a job exists), registers a job,
// and starts it in the background. The job is bounded by timeout when
// positive, and by Job.Cancel; it is NOT tied to the submitting
// caller's lifetime — that is the point of the asynchronous surface.
func (s *Service) SubmitJob(g *tensat.Graph, ro RequestOptions, timeout time.Duration) (*Job, error) {
	return s.SubmitJobAs(g, ro, timeout, nil)
}

// SubmitJobAs is SubmitJob under a tenant's admission control: the
// decision (full quality, degraded, or *RateLimitError) is made at
// submission, the quota slot is held for the job's lifetime, and the
// tenant's priority orders the job in the worker queue. tn == nil
// bypasses admission entirely.
func (s *Service) SubmitJobAs(g *tensat.Graph, ro RequestOptions, timeout time.Duration, tn *tenant.Tenant) (*Job, error) {
	q, err := s.prepare(g, ro)
	if err != nil {
		return nil, err
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	s.metrics.requests.With(q.prof.RuleSet, q.prof.CostModel).Inc()
	prio, degraded, err := s.admit(tn)
	if err != nil {
		return nil, err
	}
	// Drain gate: track registers the job with the drain WaitGroup (so
	// Drain waits for it) and atomically refuses once draining has
	// begun — a job can never start after Drain has decided what it is
	// waiting for.
	if !s.drain.track() {
		if tn != nil && s.cfg.Tenants != nil {
			s.cfg.Tenants.Release(tn.Name, degraded)
		}
		return nil, ErrDraining
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	job := &Job{
		id:      id,
		created: time.Now(),
		prof:    q.prof,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  JobRunning,
	}
	if tn != nil && s.cfg.Tenants != nil {
		job.tenant, job.degraded = tn.Name, degraded
	}
	job.log.init()
	job.log.publish(tensat.Progress{Phase: tensat.PhaseQueued})
	if err := s.jobs.add(job); err != nil {
		cancel()
		s.drain.done()
		if job.tenant != "" {
			s.cfg.Tenants.Release(job.tenant, job.degraded)
		}
		return nil, err
	}
	s.metrics.jobsSubmitted.Inc()
	s.metrics.jobsRunning.Inc()
	attrs := []any{
		"job", job.id,
		"profile", q.prof.label(),
		"fingerprint", q.fp,
	}
	if job.tenant != "" {
		attrs = append(attrs, "tenant", job.tenant, "degraded", job.degraded)
	}
	s.log.Info("job submitted", attrs...)
	go func() {
		defer s.drain.done()
		s.runJob(ctx, job, q, g, prio, degraded)
	}()
	return job, nil
}

// Job looks up a tracked job by id.
func (s *Service) Job(id string) (*Job, bool) { return s.jobs.get(id) }

// Jobs lists every tracked job — running and finished-but-unexpired —
// oldest first. It is the observability hook behind GET /v1/jobs: the
// TTL and eviction behavior of the store shows up as jobs appearing
// and disappearing from this listing.
func (s *Service) Jobs() []*Job { return s.jobs.list() }

// finishJob records the terminal state in the job-lifecycle counters,
// the job, and the structured log, and releases the tenant quota slot
// the job has held since submission. The counters move before the job
// publishes its state, so a caller woken by Done reads counts that
// already include it.
func (s *Service) finishJob(job *Job, resp *Response, err error) {
	status := jobStatusOf(err)
	s.metrics.jobsRunning.Dec()
	attrs := []any{
		"job", job.id,
		"status", string(status),
		"profile", job.prof.label(),
		"duration", time.Since(job.created),
	}
	switch status {
	case JobCanceled:
		s.metrics.jobsCanceled.Inc()
	case JobFailed:
		s.metrics.jobsFailed.Inc()
		attrs = append(attrs, "error", err.Error())
	default:
		s.metrics.jobsDone.Inc()
		if resp != nil {
			attrs = append(attrs, "cached", resp.Cached, "deduped", resp.Deduped)
		}
	}
	job.finish(status, resp, err)
	if job.tenant != "" && s.cfg.Tenants != nil {
		s.cfg.Tenants.Release(job.tenant, job.degraded)
	}
	s.log.Info("job finished", attrs...)
}

// runJob drives one job through the cache tiers → singleflight →
// worker-pool path — the single implementation of lookup, load
// shedding, join and wait that every request runs — pumping the shared
// flight's progress stream into the job's own log so every
// deduplicated sibling (and the SSE watchers of each) sees identical
// live snapshots.
func (s *Service) runJob(ctx context.Context, job *Job, q request, g *tensat.Graph, prio int, degraded bool) {
	// Panic isolation for the job runner itself (the worker-pool run has
	// its own recover): the job must always reach a terminal state —
	// watchers block on job.Done() — and the daemon must survive.
	defer func() {
		if r := recover(); r != nil {
			perr := &tensat.PanicError{Value: r, Stack: debug.Stack()}
			s.metrics.panics.With("job").Inc()
			s.log.Error("panic in job runner", "job", job.id,
				"panic", fmt.Sprint(r), "stack", string(perr.Stack))
			select {
			case <-job.done:
				// Already terminal; nothing left to publish.
			default:
				s.finishJob(job, nil, perr)
			}
		}
	}()
	// A cached full-quality answer rescues even an over-quota request:
	// shedding only applies to work, and a cache hit is free.
	if entry, tier, ok := s.lookup(ctx, q.key); ok {
		res, err := entry.inVocabulary(q.names)
		if err != nil {
			s.finishJob(job, nil, err)
			return
		}
		s.finishJob(job, &Response{Result: res, Fingerprint: q.fp, Cached: true, Tier: tier}, nil)
		return
	}
	s.metrics.cacheMisses.Inc()

	runKey, runOpts := q.key, q.opts
	if degraded {
		runKey += shedKeySuffix
		runOpts.Extractor = tensat.ExtractGreedy
		s.metrics.shed.Inc()
		s.log.Info("load shedding job", "job", job.id, "tenant", job.tenant)
	}
	c, leader := s.flight.join(runKey)
	if leader {
		c.tensors = q.names // published to followers by close(c.done)
		go s.run(runKey, q.keyParts(), c, g, runOpts, prio, degraded)
	} else {
		s.metrics.cacheDedup.Inc()
	}

	idx := 0
	var notify <-chan struct{}
	pump := func() {
		var entries []tensat.Progress
		entries, idx, notify = c.progress.since(idx)
		for _, p := range entries {
			job.log.publish(p)
		}
	}
	pump()
	for {
		select {
		case <-c.done:
			pump() // drain entries published before the close
			if c.err != nil {
				s.finishJob(job, nil, c.err)
				return
			}
			// A sibling's graph may spell the tensors differently than
			// the leader's; answer in this job's vocabulary.
			res, err := (&cachedResult{res: c.res, tensors: c.tensors}).inVocabulary(q.names)
			if err != nil {
				s.finishJob(job, nil, err)
				return
			}
			s.finishJob(job, &Response{Result: res, Fingerprint: q.fp, Deduped: !leader, Degraded: degraded}, nil)
			return
		case <-ctx.Done():
			// Canceled (or timed out): drop our interest. The shared run
			// keeps going while any other request still wants it; if we
			// were the last, the flight cancels the work, the worker slot
			// frees up, and run() never caches the partial result.
			s.flight.leave(runKey, c)
			s.metrics.canceled.Inc()
			s.finishJob(job, nil, ctx.Err())
			return
		case <-notify:
			pump()
		}
	}
}
