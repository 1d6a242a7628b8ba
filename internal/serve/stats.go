package serve

import (
	"sort"
	"sync"
	"time"
)

// Stats is a snapshot of service counters, read back from the
// instruments GET /metrics exposes. Like a scrape, each field is read
// on its own, so a snapshot taken while requests run may mix counts
// from either side of one request.
type Stats struct {
	// Hits counts requests answered from the in-memory result cache
	// (store and peer hits count under Store.Hits and Peer.Hits);
	// Misses counts requests that had to consult the flight group (of
	// which Deduped joined an already-running identical optimization).
	Hits, Misses, Deduped uint64
	// Completed and Errors count finished optimization runs; Canceled
	// counts requests abandoned by their callers.
	Completed, Errors, Canceled uint64
	// InFlight is the number of optimizations currently holding a
	// worker slot; CacheEntries is the current LRU population and
	// CacheBytes its summed encoded size. QueueWaiting is how many runs
	// are queued for a worker slot.
	InFlight     int
	CacheEntries int
	CacheBytes   int64
	QueueWaiting int
	// Store counts the persistent result-store tier: disk hits and
	// misses after an LRU miss, unreadable/failed records, and
	// write-throughs. StoreEntries/StoreBytes snapshot the store's live
	// population (zero when no store is configured).
	Store        TierCounters
	StoreEntries int
	StoreBytes   int64
	// Peer counts the fleet cache tier: records served by the owning
	// peer, clean peer misses, transport failures (always soft), and
	// completed pushes of cold results to their owners.
	Peer TierCounters
	// PeerRetries counts fetch retry attempts against peers (transient
	// failures absorbed by backoff); PeerPushDropped counts async pushes
	// dropped because the bounded push queue was full.
	PeerRetries     uint64
	PeerPushDropped uint64
	// Shed counts requests degraded to greedy-only extraction because
	// their tenant was over quota; TenantRequests/TenantRejected count
	// per-tenant admission outcomes.
	Shed           uint64
	TenantRequests map[string]uint64
	TenantRejected map[string]uint64
	// Panics counts recovered panics by site ("optimizer", "worker",
	// "job"): each one was a request that answered 500 instead of
	// killing the daemon. Empty when none have occurred.
	Panics map[string]uint64
	// StoreDegraded reports whether the persistent store is currently
	// in degraded mode (I/O failures; the memory tier keeps serving).
	// Draining reports whether the service is shutting down gracefully.
	StoreDegraded bool
	Draining      bool
	// Jobs counts the job lifecycle (submitted, running, done,
	// canceled, failed); synchronous Optimize calls are jobs too.
	Jobs JobCounters
	// Profiles counts requests per optimization profile, keyed
	// "<ruleset>/<costmodel>" (e.g. "taso-default/t4").
	Profiles map[string]uint64
	// Search aggregates the e-matching search-phase counters over every
	// cold (uncached) optimization this server completed, so the
	// op-index pruning and incremental re-search wins are observable in
	// the serving layer.
	Search SearchCounters
	// ILP aggregates the ILP-extraction counters (presolve reduction,
	// incumbents, solve outcomes by backend) over the same runs.
	ILP ILPCounters
	// P50, P95 and P99 are percentiles over the most recent cold
	// (uncached) optimization latencies; zero until the first run
	// completes. LatencyWindow is how many recent latencies the
	// percentiles are computed over (the ring capacity, not the current
	// population).
	P50, P95, P99 time.Duration
	LatencyWindow int
}

// TierCounters are the hit/miss/error/put counters of one secondary
// cache tier (the persistent store or the peer fleet).
type TierCounters struct {
	Hits   uint64
	Misses uint64
	Errors uint64
	Puts   uint64
}

// SearchCounters sums tensat.SearchStats over completed runs: classes
// scanned by the pattern programs vs. pruned by the operator index,
// dirty candidates re-searched vs. clean candidates answered from the
// per-iteration match memo, and total matches found.
type SearchCounters struct {
	ClassesScanned uint64
	ClassesPruned  uint64
	DirtySearched  uint64
	CleanReused    uint64
	Matches        uint64
}

// ILPCounters sums tensat.ILPStats over completed ILP-extraction runs:
// what presolve removed before solving, how many incumbent improvements
// the searches produced, and how each backend's solves ended. Solves is
// keyed "<backend>/optimal" or "<backend>/feasible" (an anytime answer
// returned at a budget without an optimality proof).
type ILPCounters struct {
	PresolveFixed   uint64
	PresolveDropped uint64
	PresolveRemoved uint64
	Incumbents      uint64
	Solves          map[string]uint64
}

// latencyWindow is how many recent cold latencies feed the percentiles.
const latencyWindow = 512

// latencies holds the most recent cold-run latencies. The percentiles
// are exact ranks over this window, which histogram buckets cannot
// reproduce.
type latencies struct {
	mu   sync.Mutex
	ring [latencyWindow]time.Duration
	n    int // total latencies ever recorded
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ring[l.n%latencyWindow] = d
	l.n++
	l.mu.Unlock()
}

// percentiles returns the p50, p95 and p99 latencies over the window;
// all zero before the first run completes.
func (l *latencies) percentiles() (p50, p95, p99 time.Duration) {
	l.mu.Lock()
	window := append([]time.Duration(nil), l.ring[:min(l.n, latencyWindow)]...)
	l.mu.Unlock()
	n := len(window)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return window[n/2], window[(n*95)/100], window[(n*99)/100]
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	// The job store has no background sweeper; expiry is enforced on
	// every touch point instead. Purging here too means a server whose
	// only traffic is monitoring (/v1/stats) still releases finished
	// jobs (their result graphs and progress logs) once JobTTL elapses.
	s.jobs.purge()
	m := s.metrics
	st := Stats{
		Hits:         m.cacheHits.Value(),
		Misses:       m.cacheMisses.Value(),
		Deduped:      m.cacheDedup.Value(),
		Completed:    m.completed.Value(),
		Errors:       m.runErrors.Value(),
		Canceled:     m.canceled.Value(),
		InFlight:     int(m.inFlight.Value()),
		CacheEntries: s.cache.len(),
		CacheBytes:   s.cache.bytesUsed(),
		QueueWaiting: s.queue.waiting(),
		Store: TierCounters{
			Hits:   m.storeHits.Value(),
			Misses: m.storeMisses.Value(),
			Errors: m.storeErrors.Value(),
			Puts:   m.storePuts.Value(),
		},
		Peer: TierCounters{
			Hits:   m.peerHits.Value(),
			Misses: m.peerMisses.Value(),
			Errors: m.peerErrors.Value(),
			Puts:   m.peerPuts.Value(),
		},
		PeerRetries:     m.peerRetries.Value(),
		PeerPushDropped: m.peerPushDropped.Value(),
		Shed:            m.shed.Value(),
		TenantRequests:  m.tenantRequests.Values(),
		TenantRejected:  m.tenantRejected.Values(),
		Panics:          m.panics.Values(),
		Draining:        s.drain.active(),
		Profiles:        m.requests.Values(),
		Search: SearchCounters{
			ClassesScanned: m.searchScanned.Value(),
			ClassesPruned:  m.searchPruned.Value(),
			DirtySearched:  m.searchDirty.Value(),
			CleanReused:    m.searchClean.Value(),
			Matches:        m.searchMatches.Value(),
		},
		ILP: ILPCounters{
			PresolveFixed:   m.ilpPresolveFixed.Value(),
			PresolveDropped: m.ilpPresolveDropped.Value(),
			PresolveRemoved: m.ilpPresolveRemoved.Value(),
			Incumbents:      m.ilpIncumbents.Value(),
			Solves:          m.ilpSolves.Values(),
		},
		Jobs: JobCounters{
			Submitted: m.jobsSubmitted.Value(),
			Running:   int(m.jobsRunning.Value()),
			Done:      m.jobsDone.Value(),
			Canceled:  m.jobsCanceled.Value(),
			Failed:    m.jobsFailed.Value(),
		},
		LatencyWindow: latencyWindow,
	}
	if s.cfg.Store != nil {
		st.StoreEntries = s.cfg.Store.Len()
		st.StoreBytes = s.cfg.Store.Bytes()
	}
	if s.store != nil {
		st.StoreDegraded = s.store.isDegraded()
	}
	st.P50, st.P95, st.P99 = m.latency.percentiles()
	return st
}
