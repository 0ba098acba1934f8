package cluster

import (
	"symsim/internal/obs"
)

// Coordinator metrics. Counters touched while holding c.mu are collected
// into a publish slice and incremented after unlock (the repo-wide SA003
// discipline); the gauges are GaugeFuncs that take the mutex themselves
// when a scrape renders them.
type coordMetrics struct {
	runs             *obs.Counter
	runsDone         *obs.Counter
	runsFailed       *obs.Counter
	leases           *obs.Counter
	retires          *obs.Counter
	requeues         *obs.Counter
	expiries         *obs.Counter
	heartbeats       *obs.Counter
	staleRPCs        *obs.Counter
	duplicateReports *obs.Counter
	replayedObserves *obs.Counter
	observesSubsumed *obs.Counter
	observesForked   *obs.Counter
	observesSpilled  *obs.Counter
	pathsLost        *obs.Counter
	doubleRetires    *obs.Counter
	memoHits         *obs.Counter
	memoMisses       *obs.Counter
	memoErrors       *obs.Counter
	rpcs             *obs.CounterVec
}

func newCoordMetrics(reg *obs.Registry, c *Coordinator) *coordMetrics {
	m := &coordMetrics{
		runs:             reg.Counter("symsim_cluster_runs_total", "Distributed runs registered with the coordinator."),
		runsDone:         reg.Counter("symsim_cluster_runs_done_total", "Distributed runs finished with a valid result."),
		runsFailed:       reg.Counter("symsim_cluster_runs_failed_total", "Distributed runs failed (attempt exhaustion or accounting violation)."),
		leases:           reg.Counter("symsim_cluster_units_leased_total", "Work-unit leases granted (includes re-leases of requeued units)."),
		retires:          reg.Counter("symsim_cluster_units_retired_total", "Work units retired by an accepted report."),
		requeues:         reg.Counter("symsim_cluster_units_requeued_total", "Work units requeued under a new epoch after expiry or failure."),
		expiries:         reg.Counter("symsim_cluster_lease_expiries_total", "Leases lapsed without a progress heartbeat (crashed or wedged worker)."),
		heartbeats:       reg.Counter("symsim_cluster_heartbeats_total", "Lease-extending progress heartbeats accepted."),
		staleRPCs:        reg.Counter("symsim_cluster_stale_rpcs_total", "RPCs fenced off for carrying a dead lease epoch (zombie workers)."),
		duplicateReports: reg.Counter("symsim_cluster_duplicate_reports_total", "Same-epoch report retransmissions acknowledged idempotently."),
		replayedObserves: reg.Counter("symsim_cluster_replayed_observes_total", "Observe retransmissions answered from the unit's memoized verdict (lost-response replays)."),
		observesSubsumed: reg.Counter("symsim_cluster_observes_subsumed_total", "Authoritative CSM observes answered subsumed."),
		observesForked:   reg.Counter("symsim_cluster_observes_forked_total", "Authoritative CSM observes that registered two fork children."),
		observesSpilled:  reg.Counter("symsim_cluster_observes_spilled_total", "Fork observes whose children were spilled to the shared frontier for a starving worker (the rest stay with their unit)."),
		pathsLost:        reg.Counter("symsim_cluster_paths_lost_total", "Runs that drained with fewer paths retired than created (invariant violation; must stay 0)."),
		doubleRetires:    reg.Counter("symsim_cluster_double_retire_total", "Attempts to retire an already-retired unit under a different epoch (must stay 0)."),
		memoHits:         reg.Counter("symsim_cluster_memo_hits_total", "Cluster memo-table lookups that returned a cached result."),
		memoMisses:       reg.Counter("symsim_cluster_memo_misses_total", "Cluster memo-table lookups that missed."),
		memoErrors:       reg.Counter("symsim_cluster_memo_errors_total", "Cluster memo-table operations that failed."),
		rpcs:             reg.CounterVec("symsim_cluster_rpcs_total", "Cluster API requests served, by endpoint.", "endpoint"),
	}
	reg.GaugeFunc("symsim_cluster_runs_active", "Distributed runs currently exploring.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, r := range c.runs {
			if r.state == "running" {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("symsim_cluster_frontier_depth", "Pending paths queued across all live runs (unbundled frontier).", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, r := range c.runs {
			if r.state == "running" {
				n += len(r.pending)
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("symsim_cluster_units_inflight", "Work units currently leased to workers across all live runs.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, r := range c.runs {
			n += len(r.leased)
		}
		return float64(n)
	})
	reg.GaugeFunc("symsim_cluster_units_requeued", "Work units awaiting re-lease under a fresh epoch.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, r := range c.runs {
			n += len(r.requeue)
		}
		return float64(n)
	})
	return m
}

// Worker metrics: per-worker registries mean per-worker series, and
// because core.AnalyzeContext publishes its simulation metrics to the same
// registry the worker passes down, each worker exports its own simulation
// counters for free.
type workerMetrics struct {
	unitsReported *obs.Counter
	unitsFailed   *obs.Counter
	unitsStale    *obs.Counter
	leaseEmpty    *obs.Counter
	observeRPCs   *obs.Counter
	localSubsumed *obs.Counter
	heartbeats    *obs.Counter
	rpcErrors     *obs.CounterVec
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	return &workerMetrics{
		unitsReported: reg.Counter("symsim_cluster_worker_units_reported_total", "Work units this worker completed and retired."),
		unitsFailed:   reg.Counter("symsim_cluster_worker_units_failed_total", "Work units this worker returned for requeue."),
		unitsStale:    reg.Counter("symsim_cluster_worker_units_stale_total", "Work units whose outcome the coordinator fenced as stale (lease lost mid-unit)."),
		leaseEmpty:    reg.Counter("symsim_cluster_worker_lease_empty_total", "Lease polls that returned no work."),
		observeRPCs:   reg.Counter("symsim_cluster_worker_observe_rpcs_total", "Remote CSM observe RPCs issued."),
		localSubsumed: reg.Counter("symsim_cluster_worker_local_subsumed_total", "Observes answered subsumed from the worker's covering-state cache without an RPC."),
		heartbeats:    reg.Counter("symsim_cluster_worker_heartbeats_total", "Progress heartbeats sent."),
		rpcErrors:     reg.CounterVec("symsim_cluster_worker_rpc_errors_total", "Cluster RPCs that failed after retries, by endpoint.", "endpoint"),
	}
}
