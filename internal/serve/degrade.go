package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"tensat/internal/cachestore"
)

// ErrDraining is returned by job submission (SubmitJob, Optimize) once
// BeginDrain has been called: the daemon is shutting down, finishing
// the work it holds but accepting no more. Transports answer 503 with Retry-After
// so load balancers move on to a healthy node.
var ErrDraining = errors.New("serve: draining for shutdown")

// errStoreDegraded marks a store operation skipped because the guard
// holds the store in degraded mode. It never leaves the package: the
// lookup and write-through paths treat it as a quiet miss (the memory
// tier keeps serving), distinct from a real I/O failure, which counts
// toward store_errors and re-arms degraded mode.
var errStoreDegraded = errors.New("serve: result store degraded")

// defaultStoreReprobe is how often a degraded store lets one operation
// through to test whether the fault (a full disk, a flaky volume) has
// cleared.
const defaultStoreReprobe = 5 * time.Second

// storeGuard wraps the persistent result store with failure hysteresis:
// the first I/O error flips the guard into degraded mode, where every
// store operation is skipped — the daemon keeps serving from memory —
// except one probe per reprobe interval. A probe that succeeds flips
// the guard healthy again; one that fails keeps it degraded. This turns
// "the disk filled up" from a per-request error storm into one mode
// transition, observable on the tensat_store_degraded gauge.
type storeGuard struct {
	st      cachestore.Store
	reprobe time.Duration
	// onChange fires on every healthy<->degraded transition with the
	// new degraded state; wired to the gauge and the log at
	// construction. Called outside the guard's lock.
	onChange func(degraded bool)

	mu        sync.Mutex
	degraded  bool
	lastProbe time.Time
}

func newStoreGuard(st cachestore.Store, reprobe time.Duration, onChange func(bool)) *storeGuard {
	if reprobe <= 0 {
		reprobe = defaultStoreReprobe
	}
	return &storeGuard{st: st, reprobe: reprobe, onChange: onChange}
}

// admit reports whether the next store operation may proceed. In
// degraded mode only one operation per reprobe interval is admitted;
// that operation's outcome decides whether the guard recovers.
func (g *storeGuard) admit() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.degraded {
		return true
	}
	if now := time.Now(); now.Sub(g.lastProbe) >= g.reprobe {
		g.lastProbe = now
		return true
	}
	return false
}

// observe folds one admitted operation's outcome into the guard state,
// firing onChange on transitions.
func (g *storeGuard) observe(err error) {
	g.mu.Lock()
	was := g.degraded
	if err != nil {
		g.degraded = true
		g.lastProbe = time.Now()
	} else {
		g.degraded = false
	}
	changed := g.degraded != was
	now := g.degraded
	g.mu.Unlock()
	if changed && g.onChange != nil {
		g.onChange(now)
	}
}

// isDegraded reports the current mode (the gauge and /v1/readyz source).
func (g *storeGuard) isDegraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded
}

// get wraps Store.Get; in degraded mode it returns errStoreDegraded
// without touching the disk (except for the periodic probe).
func (g *storeGuard) get(key string) ([]byte, bool, error) {
	if !g.admit() {
		return nil, false, errStoreDegraded
	}
	payload, ok, err := g.st.Get(key)
	g.observe(err)
	return payload, ok, err
}

// put wraps Store.Put under the same admission rule as get.
func (g *storeGuard) put(key string, payload []byte) error {
	if !g.admit() {
		return errStoreDegraded
	}
	err := g.st.Put(key, payload)
	g.observe(err)
	return err
}

// drainState coordinates graceful shutdown: begin flips the service
// into draining mode (new submissions fail with ErrDraining, /v1/readyz
// answers 503, SSE streams terminate), and wait blocks until every
// tracked asynchronous job has finished or the caller's context
// expires. track/done bracket each job goroutine; track is refused
// once draining, and both it and begin hold the same lock, so the
// WaitGroup can never be incremented after wait has started.
type drainState struct {
	mu       sync.Mutex
	draining bool
	ch       chan struct{} // closed by begin
	wg       sync.WaitGroup
}

func newDrainState() *drainState {
	return &drainState{ch: make(chan struct{})}
}

// begin flips into draining mode; idempotent.
func (d *drainState) begin() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return
	}
	d.draining = true
	close(d.ch)
}

// active reports whether drain has begun.
func (d *drainState) active() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// channel returns the channel closed when drain begins, for select
// loops (the SSE handler) that must react mid-stream.
func (d *drainState) channel() <-chan struct{} { return d.ch }

// track registers one unit of in-flight work; it reports false (and
// registers nothing) once draining has begun.
func (d *drainState) track() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return false
	}
	d.wg.Add(1)
	return true
}

// done releases one tracked unit.
func (d *drainState) done() { d.wg.Done() }

// wait blocks until every tracked unit finishes or ctx expires.
func (d *drainState) wait(ctx context.Context) error {
	finished := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BeginDrain flips the service into draining mode: running work
// continues, but new job submissions (synchronous Optimize calls
// included) fail with ErrDraining, /v1/readyz answers 503, and every
// open SSE stream receives a terminal "draining" event. Idempotent.
func (s *Service) BeginDrain() {
	s.drain.begin()
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.drain.active() }

// Drain begins draining (if not already begun) and blocks until every
// tracked job — in-flight Optimize calls included — has finished or
// ctx expires. The caller — the daemon's SIGTERM path — bounds it with
// its -drain-timeout.
func (s *Service) Drain(ctx context.Context) error {
	s.drain.begin()
	return s.drain.wait(ctx)
}
