package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/logic"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// Config tunes a Coordinator. The zero value is usable: platforms build
// through the report catalogue, shards default to DefaultShardSize paths
// and leases to DefaultLeaseTTL.
type Config struct {
	// BuildPlatform constructs the platform for a run spec's design and
	// bench names. Nil uses the report catalogue (bm32 | omsp430 | dr5 ×
	// the embedded benchmark programs).
	BuildPlatform func(design, bench string) (*core.Platform, error)
	// Memo, when non-nil, is served over /cluster/cache/{key} as the
	// cluster-wide result memo table (usually the co-located
	// *service.Service).
	Memo Memo
	// Metrics receives coordinator metrics; nil uses obs.Default.
	Metrics *obs.Registry
	// ShardSize caps pending paths per leased unit (DefaultShardSize).
	ShardSize int
	// LeaseTTL is how long a leased unit may go without a progress
	// heartbeat before it is requeued under a new epoch (DefaultLeaseTTL).
	LeaseTTL time.Duration
	// SweepEvery is the lease-expiry scan period (LeaseTTL/4).
	SweepEvery time.Duration
	// MaxAttempts bounds lease attempts per unit before the whole run is
	// failed (DefaultMaxAttempts).
	MaxAttempts int
	// Logf receives operational logging; nil discards.
	Logf func(format string, args ...any)
}

// Defaults for the zero Config.
const (
	DefaultShardSize   = 8
	DefaultLeaseTTL    = 10 * time.Second
	DefaultMaxAttempts = 5
)

// Coordinator owns the authoritative CSM and the shared frontier for a
// set of distributed runs, and hands out leased work units to workers.
// All methods are safe for concurrent use.
type Coordinator struct {
	cfg Config
	om  *coordMetrics

	mu      sync.Mutex
	cond    *sync.Cond // signals frontier growth / requeue / close
	runs    map[string]*run
	order   []string // lease scan order: creation order
	rr      int      // round-robin offset into order, so workers spread across runs
	waiters int      // workers parked in Lease, waiting for work
	nextID  int
	closed  bool

	stopSweep chan struct{}
	wg        sync.WaitGroup
}

// run is one distributed co-analysis.
type run struct {
	id     string
	spec   RunSpec
	shard  int
	p      *core.Platform
	policy csm.Manager // authoritative; every Observe under c.mu

	profile *core.Profile
	pending []core.PendingPath // unbundled frontier (LIFO, like the local stack)
	requeue []*workUnit        // expired/failed units awaiting re-lease
	leased  map[int]*workUnit
	done    map[int]int // unit id -> epoch it retired under
	next    int         // next unit id

	created  int // frontier entries ever registered: genesis + 2 per fork
	retired  int // paths completed by retired units
	skipped  int // subsumed paths, summed from reports
	requeues int
	cycles   uint64
	inflight int // observes between their two c.mu sections (see Observe)

	state  string // "running" | "done" | "failed"
	errMsg string
	res    *core.Result
	doneCh chan struct{}
}

// workUnit is a leased shard of pending paths.
type workUnit struct {
	id       int
	epoch    int
	attempts int
	paths    []core.PendingPath
	deadline time.Time
	worker   string
	// verdicts memoizes this epoch's observe responses by the worker's
	// per-unit sequence number, so a retried observe (lost response)
	// replays the original verdict instead of re-running the policy — a
	// re-run would answer "subsumed" for a state the first delivery
	// already merged, and the worker would never simulate the two children
	// the coordinator registered on its path set. A nil entry marks a
	// first delivery still between Observe's lock sections; a concurrent
	// duplicate parks on c.cond until the verdict lands. Cleared on every
	// epoch bump (a fresh lease restarts the sequence at 1).
	verdicts map[int]*observeResponse
}

// NewCoordinator starts a coordinator and its lease-expiry sweeper.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.BuildPlatform == nil {
		cfg.BuildPlatform = func(design, bench string) (*core.Platform, error) {
			return report.BuildPlatform(report.Design(design), bench)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:       cfg,
		runs:      make(map[string]*run),
		stopSweep: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.om = newCoordMetrics(cfg.Metrics, c)
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Close stops the sweeper and wakes every lease long-poller with
// ErrClosed. In-flight runs stay queryable but receive no more work.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stopSweep)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// NewRun registers a distributed run: builds the platform, constructs the
// authoritative policy and seeds the frontier with the genesis cold-boot
// path. It returns the run ID workers will see in their leases.
func (c *Coordinator) NewRun(spec RunSpec) (string, error) {
	if spec.Design == "" || spec.Bench == "" {
		return "", fmt.Errorf("%w: design and bench are required", ErrBadPayload)
	}
	if spec.Policy == "" {
		spec.Policy = "merge-all"
	}
	if spec.K <= 0 {
		spec.K = 4
	}
	if spec.MaxStates <= 0 {
		spec.MaxStates = 4096
	}
	if spec.MemX == "" {
		spec.MemX = "verilog"
	}
	// Validate what every worker will parse: a spec its MemX parse
	// rejects would fail each lease until MaxAttempts.
	if _, err := cliflags.ParseMemX(spec.MemX); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if spec.Workers <= 0 {
		// One path worker per unit by default: cluster parallelism comes
		// from sharding units across the fleet, not from racing paths
		// inside one unit. Intra-unit workers observe a less-merged CSM
		// (their halts race the merges that would have subsumed them), so
		// they inflate the path count without changing the dichotomy —
		// measurably a net loss once every observe is a round-trip.
		spec.Workers = 1
	}
	if spec.ShardSize <= 0 {
		spec.ShardSize = c.cfg.ShardSize
	}
	policy, err := newPolicy(spec)
	if err != nil {
		return "", err
	}
	p, err := c.cfg.BuildPlatform(spec.Design, spec.Bench)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	r := &run{
		spec:    spec,
		shard:   spec.ShardSize,
		p:       p,
		policy:  policy,
		profile: core.NewProfile(len(p.Design.Nets)),
		leased:  make(map[int]*workUnit),
		done:    make(map[int]int),
		// The genesis cold-boot path: a zero-width state, exactly the
		// entry a fresh single-node analysis starts from.
		pending: []core.PendingPath{{State: vvp.State{}}},
		created: 1,
		state:   "running",
		doneCh:  make(chan struct{}),
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	c.nextID++
	r.id = fmt.Sprintf("r%d", c.nextID)
	c.runs[r.id] = r
	c.order = append(c.order, r.id)
	c.cond.Broadcast()
	c.mu.Unlock()

	c.om.runs.Inc()
	c.cfg.Logf("cluster: run %s: %s/%s policy=%s shard=%d", r.id, spec.Design, spec.Bench, policy.Name(), r.shard)
	return r.id, nil
}

// newPolicy constructs the authoritative manager for a normalized spec.
func newPolicy(spec RunSpec) (csm.Manager, error) {
	switch spec.Policy {
	case "merge-all":
		return csm.NewMergeAll(), nil
	case "clustered":
		return csm.NewClustered(spec.K), nil
	case "exact":
		return csm.NewExact(spec.MaxStates), nil
	case "constrained":
		// Deliberately unsupported rather than unknown: the constrained
		// policy is built from a -constraints fact file resolved against
		// the submitting machine's platform state spec, and the RunSpec
		// wire format carries neither. Run it locally with cmd/symsim.
		return nil, fmt.Errorf("%w: the constrained policy needs a local -constraints fact file and platform state spec, which the cluster API does not carry; run constrained analyses locally with symsim -policy constrained", ErrBadPayload)
	}
	return nil, fmt.Errorf("%w: unknown policy %q (cluster runs accept merge-all | clustered | exact)", ErrBadPayload, spec.Policy)
}

// Lease hands out one work unit, long-polling up to wait for work to
// appear. It returns (nil, nil) when no work materialized within wait.
// Requeued units are re-leased before fresh frontier shards so a crashed
// worker's paths finish first.
func (c *Coordinator) Lease(ctx context.Context, worker string, wait time.Duration) (*leaseResponse, error) {
	deadline := time.Now().Add(wait)
	// cond.Wait cannot time out; these wakers make the long-poll bounded
	// by wait and by the caller's context. They broadcast with c.mu held:
	// a bare broadcast could land in the window between the deadline check
	// below and cond.Wait parking, and a poller that misses its own waker
	// stays parked until some unrelated broadcast happens along.
	wake := func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	timer := time.AfterFunc(wait, wake)
	defer timer.Stop()
	stopCtx := context.AfterFunc(ctx, wake)
	defer stopCtx()

	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if ls := c.leaseLocked(worker); ls != nil {
			c.mu.Unlock()
			c.om.leases.Inc()
			return ls, nil
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			c.mu.Unlock()
			return nil, nil
		}
		// A parked waiter is the signal that makes fork observes spill
		// children to the shared frontier instead of keeping them local.
		c.waiters++
		c.cond.Wait()
		c.waiters--
	}
}

// leaseLocked scans runs round-robin for work, so a fleet spreads across
// concurrent runs instead of piling onto the oldest. Caller holds c.mu.
func (c *Coordinator) leaseLocked(worker string) *leaseResponse {
	for i := 0; i < len(c.order); i++ {
		id := c.order[(c.rr+i)%len(c.order)]
		r := c.runs[id]
		if r.state != "running" {
			continue
		}
		var u *workUnit
		switch {
		case len(r.requeue) > 0:
			u = r.requeue[len(r.requeue)-1]
			r.requeue = r.requeue[:len(r.requeue)-1]
		case len(r.pending) > 0:
			n := len(r.pending)
			k := r.shard
			if k > n {
				k = n
			}
			// Pop from the end: the frontier is explored LIFO like the
			// single-node stack, keeping memory bounded by depth.
			paths := append([]core.PendingPath(nil), r.pending[n-k:]...)
			r.pending = r.pending[:n-k]
			r.next++
			u = &workUnit{id: r.next, epoch: 1, paths: paths}
		default:
			continue
		}
		u.attempts++
		u.worker = worker
		u.deadline = time.Now().Add(c.cfg.LeaseTTL)
		r.leased[u.id] = u
		c.rr = (c.rr + i + 1) % len(c.order)
		seed := core.SeedCheckpoint(r.p, r.policy.Name(), u.paths)
		return &leaseResponse{
			RunID:      r.id,
			Unit:       u.id,
			Epoch:      u.epoch,
			LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(),
			Spec:       r.spec,
			PolicyName: r.policy.Name(),
			Seed:       seed.EncodeBinary(),
		}
	}
	return nil
}

// Observe presents one halted state to the run's authoritative manager.
// If the verdict is "explore", BOTH fork children are computed here —
// cloning and specializing exactly as the single-node scheduler does —
// and registered before the verdict is returned, so a worker crash after
// this call loses nothing: the children are already the coordinator's
// responsibility, and a re-simulated parent halts in a state the CSM now
// covers and observes "subsumed" (every policy is covering on merges),
// registering nothing twice.
//
// Where the children register is the locality-first scheduling decision:
// by default they are appended to the observing unit's own path set and
// the worker forks locally (Keep) — no frontier round-trip, and the unit
// grows the way a single-node worklist does. Only when the fleet is
// starving — a worker is parked in Lease and no run has leasable work —
// are they spilled to the shared frontier for the idle worker to pick up.
//
// seq is the worker's per-unit observe sequence number (1-based; <= 0
// disables replay protection). The verdict is memoized on the unit under
// seq before it is returned, so a retry of a lost response replays the
// original verdict — see workUnit.verdicts.
//
// The CPU-bound middle — the manager's merge, the two clones, Specialize
// and the explore-state encoding — runs with c.mu RELEASED: every policy
// serializes its own merges per run, and the clones touch only
// caller-owned state, so lease/report/heartbeat/sweep traffic (and every
// other run) never queues behind merge work. The run's inflight count
// covers the window: finalizeLocked cannot declare the run drained while
// a verdict whose children are not yet registered is in flight, and if
// the unit's lease lapses inside the window the children are registered
// on the shared frontier instead (the requeued unit re-simulates the
// parent to a now-covered halt, so nobody else will explore them).
func (c *Coordinator) Observe(runID string, unit, epoch, seq int, halt vvp.State) (observeResponse, error) {
	var publish []*obs.Counter
	defer func() {
		for _, ctr := range publish {
			ctr.Inc()
		}
	}()

	c.mu.Lock()
	r, ok := c.runs[runID]
	if !ok {
		c.mu.Unlock()
		return observeResponse{}, ErrUnknownRun
	}
	if err := r.checkEpochLocked(unit, epoch); err != nil {
		c.mu.Unlock()
		publish = append(publish, c.om.staleRPCs)
		return observeResponse{}, err
	}
	u := r.leased[unit]
	if seq > 0 {
		for {
			memo, seen := u.verdicts[seq]
			if !seen {
				break
			}
			if memo != nil {
				c.mu.Unlock()
				publish = append(publish, c.om.replayedObserves)
				return *memo, nil
			}
			// The first delivery of this seq is still between the lock
			// sections; park until its verdict lands (every Observe exit
			// broadcasts) and re-validate the world after the wake.
			c.cond.Wait()
			if c.closed {
				c.mu.Unlock()
				return observeResponse{}, ErrClosed
			}
			if err := r.checkEpochLocked(unit, epoch); err != nil {
				c.mu.Unlock()
				publish = append(publish, c.om.staleRPCs)
				return observeResponse{}, err
			}
		}
		if u.verdicts == nil {
			u.verdicts = make(map[int]*observeResponse)
		}
		u.verdicts[seq] = nil // first delivery, verdict in flight
	}
	r.inflight++
	c.mu.Unlock()

	d := r.policy.Observe(halt)
	var children []core.PendingPath
	var exploreEnc []byte
	if !d.Subsumed {
		taken, notTaken := d.Explore.Clone(), d.Explore.Clone()
		if r.p.Specialize != nil {
			taken = r.p.Specialize(taken, true)
			notTaken = r.p.Specialize(notTaken, false)
		}
		children = []core.PendingPath{
			{State: taken, Forced: logic.Hi, HasForce: true},
			{State: notTaken, Forced: logic.Lo, HasForce: true},
		}
		if pr, ok := r.policy.(csm.Pruner); ok {
			// Defensive: no cluster-accepted policy prunes today (newPolicy
			// rejects constrained), but if one ever does, an infeasible
			// child must not be registered, spilled to the shared frontier,
			// or handed back to the worker.
			kept := children[:0]
			for _, ch := range children {
				if pr.FeasibleChild(ch.State) {
					kept = append(kept, ch)
				}
			}
			children = kept
		}
		exploreEnc = d.Explore.AppendBinary(nil)
	}
	states := r.policy.States()

	c.mu.Lock()
	defer c.mu.Unlock()
	r.inflight--
	// Wake parked duplicates of this seq (lease waiters re-check and
	// re-park). Runs before the unlock, so the wake cannot be lost.
	defer c.cond.Broadcast()
	if r.state != "running" {
		// The run failed while the verdict was computed ("done" is
		// impossible: this observe held the inflight count). Nothing to
		// register — the failed run's accounting is void anyway.
		publish = append(publish, c.om.staleRPCs)
		return observeResponse{}, ErrStale
	}
	stale := r.checkEpochLocked(unit, epoch) != nil
	if d.Subsumed {
		if stale {
			// Lease lapsed inside the window. The merge registered
			// nothing, so there is nothing to hand over; fence the caller.
			publish = append(publish, c.om.staleRPCs)
			publish = append(publish, c.maybeFinalizeLocked(r)...)
			return observeResponse{}, ErrStale
		}
		resp := observeResponse{Subsumed: true, States: states}
		if seq > 0 {
			u.verdicts[seq] = &resp
		}
		publish = append(publish, c.om.observesSubsumed)
		return resp, nil
	}
	r.created += len(children)
	publish = append(publish, c.om.observesForked)
	if stale {
		// Lease lapsed between the merge and this registration. The
		// requeued unit will re-simulate the parent to a halt the CSM now
		// covers, so these children would otherwise never be explored:
		// they go to the shared frontier, and the zombie caller is fenced.
		publish = append(publish, c.om.staleRPCs, c.om.observesSpilled)
		r.pending = append(r.pending, children...)
		return observeResponse{}, ErrStale
	}
	var resp observeResponse
	switch {
	case len(children) == 0:
		// Every child was pruned as infeasible: the worker must fork
		// nothing, exactly as for a spilled verdict.
		resp = observeResponse{States: states}
	case c.starvingLocked():
		publish = append(publish, c.om.observesSpilled)
		r.pending = append(r.pending, children...)
		resp = observeResponse{States: states}
	default:
		u.paths = append(u.paths, children...)
		resp = observeResponse{Keep: true, Explore: exploreEnc, States: states}
	}
	if seq > 0 {
		u.verdicts[seq] = &resp
	}
	return resp, nil
}

// starvingLocked reports whether some worker is parked in Lease with no
// leasable work anywhere — the condition under which fork children spill
// to the shared frontier instead of staying with their unit. Caller
// holds c.mu.
func (c *Coordinator) starvingLocked() bool {
	if c.waiters == 0 {
		return false
	}
	for _, id := range c.order {
		r := c.runs[id]
		if r.state == "running" && (len(r.pending) > 0 || len(r.requeue) > 0) {
			return false
		}
	}
	return true
}

// checkEpochLocked fences an RPC about a unit: the run must be live and
// the unit leased under exactly the caller's epoch. Caller holds c.mu.
func (r *run) checkEpochLocked(unit, epoch int) error {
	if r.state != "running" {
		return ErrStale
	}
	u, ok := r.leased[unit]
	if !ok || u.epoch != epoch {
		return ErrStale
	}
	return nil
}

// Report retires a unit with its report checkpoint. A duplicate delivery
// of the epoch that already retired the unit is acknowledged idempotently
// (the worker may have lost the first response and retried).
func (c *Coordinator) Report(runID string, unit, epoch int, rep *core.Checkpoint) error {
	var publish []*obs.Counter
	defer func() {
		for _, ctr := range publish {
			ctr.Inc()
		}
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return ErrUnknownRun
	}
	if r.state != "running" {
		publish = append(publish, c.om.staleRPCs)
		return ErrStale
	}
	u, ok := r.leased[unit]
	if !ok {
		if e, done := r.done[unit]; done && e == epoch {
			publish = append(publish, c.om.duplicateReports)
			return nil
		}
		publish = append(publish, c.om.staleRPCs)
		return ErrStale
	}
	if u.epoch != epoch {
		publish = append(publish, c.om.staleRPCs)
		return ErrStale
	}
	if err := rep.ValidateHeader(r.p, r.policy.Name()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if rep.PathsCreated != len(u.paths) {
		return fmt.Errorf("%w: report retires %d paths, unit %d holds %d", ErrBadPayload, rep.PathsCreated, unit, len(u.paths))
	}
	if _, dup := r.done[unit]; dup {
		// A unit both leased and done would be double retirement; this
		// cannot happen (retiring deletes the lease) but the invariant is
		// cheap to police forever.
		publish = append(publish, c.om.doubleRetires)
		return ErrStale
	}
	if err := r.profile.Absorb(rep); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	r.retired += rep.PathsCreated
	r.skipped += rep.PathsSkipped
	r.cycles += rep.SimulatedCycles
	delete(r.leased, unit)
	r.done[unit] = epoch
	publish = append(publish, c.om.retires)
	publish = append(publish, c.maybeFinalizeLocked(r)...)
	return nil
}

// Fail returns a unit the worker could not complete; it is requeued
// under the next epoch (or the run fails once attempts are exhausted).
func (c *Coordinator) Fail(runID string, unit, epoch int, reason string) error {
	var publish []*obs.Counter
	defer func() {
		for _, ctr := range publish {
			ctr.Inc()
		}
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return ErrUnknownRun
	}
	if err := r.checkEpochLocked(unit, epoch); err != nil {
		publish = append(publish, c.om.staleRPCs)
		return err
	}
	u := r.leased[unit]
	delete(r.leased, unit)
	c.cfg.Logf("cluster: run %s: unit %d failed by %s (epoch %d): %s", r.id, unit, u.worker, epoch, reason)
	publish = append(publish, c.requeueLocked(r, u, reason)...)
	return nil
}

// Heartbeat extends a unit's lease.
func (c *Coordinator) Heartbeat(runID string, unit, epoch int) error {
	var publish []*obs.Counter
	defer func() {
		for _, ctr := range publish {
			ctr.Inc()
		}
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return ErrUnknownRun
	}
	if err := r.checkEpochLocked(unit, epoch); err != nil {
		publish = append(publish, c.om.staleRPCs)
		return err
	}
	r.leased[unit].deadline = time.Now().Add(c.cfg.LeaseTTL)
	publish = append(publish, c.om.heartbeats)
	return nil
}

// requeueLocked puts an intact unit back on the queue under the next
// epoch, or fails the run when the unit is out of attempts. It returns
// the counters to publish after unlock. Caller holds c.mu.
func (c *Coordinator) requeueLocked(r *run, u *workUnit, reason string) []*obs.Counter {
	if u.attempts >= c.cfg.MaxAttempts {
		return c.failRunLocked(r, fmt.Sprintf("unit %d exhausted %d attempts (last: %s)", u.id, u.attempts, reason))
	}
	u.epoch++
	u.worker = ""
	u.verdicts = nil // a fresh lease restarts the observe sequence at 1
	r.requeue = append(r.requeue, u)
	r.requeues++
	c.cond.Broadcast()
	return []*obs.Counter{c.om.requeues}
}

// failRunLocked marks a run failed and wakes waiters. Idempotent: sweep
// can exhaust several of a run's units in one pass, and each exhaustion
// lands here — only the first closes doneCh and records the failure.
// Caller holds c.mu.
func (c *Coordinator) failRunLocked(r *run, msg string) []*obs.Counter {
	if r.state != "running" {
		return nil
	}
	r.state = "failed"
	r.errMsg = msg
	close(r.doneCh)
	c.cond.Broadcast() // parked lease/observe waiters must re-check the state
	c.cfg.Logf("cluster: run %s FAILED: %s", r.id, msg)
	return []*obs.Counter{c.om.runsFailed}
}

// maybeFinalizeLocked finalizes a run that has fully drained: nothing
// pending, nothing requeued, nothing leased, and no observe verdict in
// flight whose fork children are not yet registered. Caller holds c.mu.
func (c *Coordinator) maybeFinalizeLocked(r *run) []*obs.Counter {
	if r.state != "running" || len(r.pending) != 0 || len(r.requeue) != 0 || len(r.leased) != 0 || r.inflight != 0 {
		return nil
	}
	return c.finalizeLocked(r)
}

// finalizeLocked completes a drained run: the exactly-once invariant is
// checked (every frontier entry ever created must have been retired by
// exactly one report — a shortfall is paths_lost, an excess double
// retirement; either voids the result) and the accumulated profile is
// assembled into the dichotomy. Caller holds c.mu.
func (c *Coordinator) finalizeLocked(r *run) []*obs.Counter {
	if r.retired != r.created {
		ctr := c.om.pathsLost
		if r.retired > r.created {
			ctr = c.om.doubleRetires
		}
		return append([]*obs.Counter{ctr},
			c.failRunLocked(r, fmt.Sprintf("paths_lost: created %d, retired %d", r.created, r.retired))...)
	}
	res := r.profile.Assemble(r.p, r.policy.Name(), r.policy.States())
	res.PathsCreated = r.created
	res.PathsSkipped = r.skipped
	res.SimulatedCycles = r.cycles
	r.res = res
	r.state = "done"
	// Release what only exploration needs, so a long-lived coordinator
	// does not keep every finished run's platform, CSM and profile. This
	// run has nothing leased and no observe between its lock sections, and
	// every RPC on a run that is not running returns before touching these
	// fields; Status reads the CSM state count from res. Failed runs keep
	// theirs: an in-flight observe may still be using the policy.
	r.p, r.policy, r.profile = nil, nil, nil
	r.pending, r.requeue, r.leased, r.done = nil, nil, nil, nil
	close(r.doneCh)
	c.cfg.Logf("cluster: run %s done: %d/%d gates exercisable, %d paths, %d csm states",
		r.id, res.ExercisableCount, res.TotalGates, res.PathsCreated, res.CSMStates)
	return []*obs.Counter{c.om.runsDone}
}

// sweeper periodically requeues leased units whose lease expired — the
// crash-recovery path: a worker that died (or wedged) mid-shard stops
// heartbeating, its lease lapses, and the intact unit is re-leased under
// the next epoch while every RPC from the dead epoch bounces off 409.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopSweep:
			return
		case now := <-t.C:
			c.sweep(now)
		}
	}
}

// sweep requeues every expired lease.
func (c *Coordinator) sweep(now time.Time) {
	var publish []*obs.Counter
	defer func() {
		for _, ctr := range publish {
			ctr.Inc()
		}
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		r := c.runs[id]
		if r.state != "running" {
			continue
		}
		for uid, u := range r.leased {
			if u.deadline.After(now) {
				continue
			}
			delete(r.leased, uid)
			c.cfg.Logf("cluster: run %s: unit %d lease expired (worker %s, epoch %d), requeueing", r.id, uid, u.worker, u.epoch)
			publish = append(publish, c.om.expiries)
			publish = append(publish, c.requeueLocked(r, u, "lease expired")...)
			if r.state != "running" {
				// requeueLocked failed the run (attempts exhausted): its
				// remaining leases are moot, stop processing them.
				break
			}
		}
	}
}

// Status reports a run's externally visible state.
func (c *Coordinator) Status(runID string) (RunStatusView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return RunStatusView{}, ErrUnknownRun
	}
	var states int
	if r.state == "done" {
		states = r.res.CSMStates // the policy was released at finalize
	} else {
		states = r.policy.States()
	}
	return RunStatusView{
		ID:            r.id,
		State:         r.state,
		Error:         r.errMsg,
		Spec:          r.spec,
		Created:       r.created,
		Retired:       r.retired,
		Skipped:       r.skipped,
		Pending:       len(r.pending),
		LeasedUnits:   len(r.leased),
		RequeuedUnits: len(r.requeue),
		CSMStates:     states,
	}, nil
}

// Result returns a finished run's result. The returned Result is owned by
// the coordinator; callers must not mutate it.
func (c *Coordinator) Result(runID string) (*core.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return nil, ErrUnknownRun
	}
	switch r.state {
	case "done":
		return r.res, nil
	case "failed":
		return nil, fmt.Errorf("cluster: run %s failed: %s", r.id, r.errMsg)
	}
	return nil, ErrNotDone
}

// Wait blocks until the run finishes (or ctx ends) and returns its result.
func (c *Coordinator) Wait(ctx context.Context, runID string) (*core.Result, error) {
	c.mu.Lock()
	r, ok := c.runs[runID]
	c.mu.Unlock()
	if !ok {
		return nil, ErrUnknownRun
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.doneCh:
	}
	return c.Result(runID)
}
