// Package cluster distributes one symbolic co-analysis across a fleet of
// symsimd processes: a coordinator owns the authoritative Conservative
// State Manager and a shared frontier of pending-path work units, and
// workers pull units, simulate them with the existing simulation engine,
// and report fork children and merge candidates back.
//
// The design leans entirely on seams the repository already has:
//
//   - A work unit travels as a SYMSIMC1 seed checkpoint
//     (core.SeedCheckpoint) and is executed through Config.Resume — the
//     same fuzz-hardened codec and entry point single-node resume uses.
//   - CSM decisions flow through a remote-delegating csm.Manager
//     (remoteCSM): the worker's scheduler calls Observe exactly as it
//     would a local policy, and the verdict is computed by the
//     coordinator's authoritative manager. A non-subsumed verdict
//     registers both fork children at the coordinator before it returns;
//     scheduling is locality-first — by default the children join the
//     observing unit's own path set and the worker forks locally from
//     the merged explore state, and only when another worker is starving
//     (parked in Lease with no leasable work anywhere) do the children
//     spill to the shared frontier (Decision.Remote tells the local
//     scheduler to fork nothing).
//   - A completed unit reports back as a SYMSIMC1 report checkpoint
//     (core.UnitReport) carrying the shard's toggle profile; the
//     coordinator folds reports with core.Profile — the identical merge
//     arithmetic a single-node run applies per path segment — so the
//     distributed dichotomy is the same computation, just partitioned.
//   - Work units carry a lease epoch exactly like the PR-7 job leases: a
//     unit whose worker stops heartbeating is requeued under epoch+1, and
//     every RPC from the dead epoch is fenced with 409. Exactly-once path
//     accounting survives worker crashes because fork children register
//     at observe time (a re-simulated path halts in a state the CSM has
//     already covered, so the retry observes "subsumed" and registers
//     nothing) and retirement counts once per unit at report time.
//   - The SYMSIMK1 content-addressed result cache becomes a cluster-wide
//     memo table: the coordinator serves its service's cache over
//     /cluster/cache/{key}, and worker daemons consult it through
//     MemoClient on local misses.
//
// Transport is the stdlib HTTP the daemon already speaks, through the
// shared hardened client in internal/httpx (real timeouts, jittered
// retries) — the cluster endpoints never reintroduce the zero-timeout
// default client PR 7 eliminated.
package cluster

import (
	"errors"
)

// RunSpec describes one distributed co-analysis. It mirrors the
// result-affecting subset of the service's JobSpec vocabulary plus the
// worker-side simulation knobs the coordinator hands out with each lease.
type RunSpec struct {
	// Design and Bench select the platform, e.g. "dr5" / "tHold".
	Design string `json:"design"`
	Bench  string `json:"bench"`

	// Policy selects the authoritative CSM policy: merge-all | clustered
	// | exact (constrained needs a local file and is not accepted over
	// the cluster API). K and MaxStates parameterize clustered and exact.
	Policy    string `json:"policy,omitempty"`
	K         int    `json:"k,omitempty"`
	MaxStates int    `json:"maxStates,omitempty"`

	// MemX (verilog | sound) and Workers tune the simulation each worker
	// runs its units on (always the compiled kernel; a spec that still
	// carries the retired "engine" member decodes with it ignored).
	// Workers never changes the dichotomy. NewRun rejects an unknown MemX
	// up front.
	MemX    string `json:"memx,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// ShardSize caps the pending paths bundled per leased work unit;
	// 0 uses the coordinator's default.
	ShardSize int `json:"shardSize,omitempty"`
}

// Errors the coordinator API maps onto HTTP statuses (and back).
var (
	// ErrUnknownRun is returned for operations on a run ID the
	// coordinator has never seen (404).
	ErrUnknownRun = errors.New("cluster: unknown run")
	// ErrStale fences RPCs from a dead lease epoch: the unit was requeued
	// (or already retired under another epoch) and the caller's outcome
	// is void (409).
	ErrStale = errors.New("cluster: stale unit epoch")
	// ErrClosed is returned once the coordinator has shut down (503).
	ErrClosed = errors.New("cluster: coordinator closed")
	// ErrNotDone is returned by Result for a run still exploring (409).
	ErrNotDone = errors.New("cluster: run has no result yet")
	// ErrBadPayload tags malformed request payloads (400).
	ErrBadPayload = errors.New("cluster: bad payload")
)

// Memo is the cluster-wide result memo table the coordinator serves over
// /cluster/cache/{key}. *service.Service implements it with its
// content-addressed SYMSIMK1 cache.
type Memo interface {
	CacheGet(key string) (data []byte, ok bool, err error)
	CachePut(key string, data []byte) error
}

// --- wire messages (JSON bodies of the /cluster endpoints) ---

// leaseRequest asks for one work unit.
type leaseRequest struct {
	Worker string `json:"worker,omitempty"`
}

// leaseResponse grants one work unit: a shard of pending paths encoded as
// a SYMSIMC1 seed checkpoint, the lease epoch every subsequent RPC about
// the unit must echo, and the run spec the worker simulates under.
type leaseResponse struct {
	RunID      string  `json:"runId"`
	Unit       int     `json:"unit"`
	Epoch      int     `json:"epoch"`
	LeaseTTLMS int64   `json:"leaseTtlMs"`
	Spec       RunSpec `json:"spec"`
	// PolicyName is the authoritative manager's Name(); the worker's
	// remote CSM client reports it so the seed checkpoint validates.
	PolicyName string `json:"policyName"`
	// Seed is the SYMSIMC1 seed checkpoint (JSON base64).
	Seed []byte `json:"seed"`
}

// observeRequest presents one halted state to the authoritative CSM.
type observeRequest struct {
	Unit  int `json:"unit"`
	Epoch int `json:"epoch"`
	// Seq is the worker's 1-based observe sequence number within this
	// unit lease. A retry of a lost response replays the same Seq, and
	// the coordinator answers it from the memoized original verdict — a
	// fresh policy observe would answer "subsumed" for a state the first
	// delivery already merged, desyncing the worker's path count from the
	// unit's registered path set.
	Seq int `json:"seq"`
	// State is the halt state (vvp.State.AppendBinary, JSON base64).
	State []byte `json:"state"`
}

// observeResponse is the authoritative verdict. A non-subsumed verdict
// means the coordinator registered both fork children — either on the
// observing worker's own unit (Keep) or on the shared frontier.
type observeResponse struct {
	Subsumed bool `json:"subsumed"`
	// Keep is true when the fork children were appended to the observing
	// unit's own path set (locality-first forking): the worker forks
	// locally from Explore and keeps simulating, no frontier round-trip.
	// When false on a non-subsumed verdict, the children were spilled to
	// the shared frontier for an idle worker and the local scheduler must
	// fork nothing (Decision.Remote).
	Keep bool `json:"keep,omitempty"`
	// Explore is the merged explore state (vvp.State binary) the local
	// fork starts from; present only when Keep.
	Explore []byte `json:"explore,omitempty"`
	// States is the conservative-state count after the decision, for the
	// worker's progress reporting.
	States int `json:"states"`
}

// reportRequest retires a completed unit with its SYMSIMC1 report
// checkpoint (core.UnitReport).
type reportRequest struct {
	Unit   int    `json:"unit"`
	Epoch  int    `json:"epoch"`
	Report []byte `json:"report"`
}

// failRequest returns a unit the worker could not complete; the
// coordinator requeues it under a new epoch.
type failRequest struct {
	Unit   int    `json:"unit"`
	Epoch  int    `json:"epoch"`
	Reason string `json:"reason,omitempty"`
}

// heartbeatRequest extends a unit's lease while its simulation is making
// observable progress.
type heartbeatRequest struct {
	Unit  int `json:"unit"`
	Epoch int `json:"epoch"`
}

// createRunResponse answers POST /cluster/runs.
type createRunResponse struct {
	ID string `json:"id"`
}

// RunStatusView is the externally visible state of a run.
type RunStatusView struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Error string  `json:"error,omitempty"`
	Spec  RunSpec `json:"spec"`
	// Created counts frontier entries ever registered (genesis plus two
	// per fork); Retired counts paths simulated to completion by retired
	// units. A finished run has Created == Retired — anything else is
	// paths_lost and fails the run.
	Created int `json:"pathsCreated"`
	Retired int `json:"pathsRetired"`
	Skipped int `json:"pathsSkipped"`
	// Pending is the unbundled frontier depth; LeasedUnits and
	// RequeuedUnits the units out with workers / waiting for re-lease.
	Pending       int `json:"pathsPending"`
	LeasedUnits   int `json:"leasedUnits"`
	RequeuedUnits int `json:"requeuedUnits"`
	CSMStates     int `json:"csmStates"`
}

// RunResultView is the result summary served for a finished run.
type RunResultView struct {
	Design           string  `json:"design"`
	Bench            string  `json:"bench"`
	Policy           string  `json:"policy"`
	Complete         bool    `json:"complete"`
	ExercisableCount int     `json:"exercisableGates"`
	TotalGates       int     `json:"totalGates"`
	ReductionPct     float64 `json:"reductionPct"`
	PathsCreated     int     `json:"pathsCreated"`
	PathsSkipped     int     `json:"pathsSkipped"`
	SimulatedCycles  uint64  `json:"simulatedCycles"`
	CSMStates        int     `json:"csmStates"`
	TieOffs          int     `json:"tieOffs"`
}
