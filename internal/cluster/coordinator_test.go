package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// TestSweepMultiUnitExhaustionFailsRunOnce pins the sweep/fail interplay
// the single-exhausted-unit torture drill never reaches: TWO leased units
// of one run expire in the same sweep pass with their attempts already
// exhausted (a wedged or partitioned fleet climbs every unit's attempt
// count together). Each exhaustion fails the run; the second must land on
// failRunLocked idempotently instead of closing doneCh twice and downing
// the whole coordinator process with it.
func TestSweepMultiUnitExhaustionFailsRunOnce(t *testing.T) {
	coord := NewCoordinator(Config{
		Metrics:     obs.NewRegistry(),
		MaxAttempts: 1,
		ShardSize:   1,         // one path per unit: two pending paths = two units
		LeaseTTL:    time.Hour, // the test drives sweep by hand
		SweepEvery:  time.Hour,
	})
	t.Cleanup(coord.Close)
	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}

	// The genesis frontier holds one path; graft a second so two distinct
	// units can be leased out simultaneously.
	coord.mu.Lock()
	r := coord.runs[id]
	r.pending = append(r.pending, core.PendingPath{State: vvp.State{}})
	r.created++
	coord.mu.Unlock()

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		ls, err := coord.Lease(ctx, "doomed", time.Second)
		if err != nil || ls == nil {
			t.Fatalf("lease %d: ls=%v err=%v", i, ls, err)
		}
	}
	coord.mu.Lock()
	if len(r.leased) != 2 {
		coord.mu.Unlock()
		t.Fatalf("leased %d units, want 2", len(r.leased))
	}
	for _, u := range r.leased {
		u.deadline = time.Now().Add(-time.Minute)
	}
	coord.mu.Unlock()

	// Both units are expired AND out of attempts: one pass must fail the
	// run exactly once — a double close of doneCh panics right here.
	coord.sweep(time.Now())

	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" {
		t.Errorf("run state = %q, want failed", st.State)
	}
	if n := coord.om.runsFailed.Value(); n != 1 {
		t.Errorf("runs_failed = %d, want 1", n)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := coord.Wait(waitCtx, id); err == nil {
		t.Error("Wait should surface the run failure")
	}
}

// TestObserveReplayReturnsOriginalVerdict pins the lost-response replay
// path: the first delivery of an observe forks (the coordinator registers
// both children on the unit and merges the state into the CSM), and a
// retry carrying the same sequence number must get the ORIGINAL fork
// verdict back — not a fresh "subsumed" for the now-covered state, which
// would leave the worker two paths short of the unit's registered set and
// fail its report. A genuinely new observe of the same state (next seq)
// still judges fresh and is subsumed.
func TestObserveReplayReturnsOriginalVerdict(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	t.Cleanup(coord.Close)
	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := coord.Lease(context.Background(), "w", time.Second)
	if err != nil || ls == nil {
		t.Fatalf("lease: ls=%v err=%v", ls, err)
	}

	halt := vvp.State{}
	first, err := coord.Observe(id, ls.Unit, ls.Epoch, 1, halt)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Keep || first.Subsumed {
		t.Fatalf("first observe should fork locally, got %+v", first)
	}
	replay, err := coord.Observe(id, ls.Unit, ls.Epoch, 1, halt)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Keep || replay.Subsumed || !bytes.Equal(replay.Explore, first.Explore) {
		t.Fatalf("replayed observe diverged from the original verdict: %+v vs %+v", replay, first)
	}
	if n := coord.om.replayedObserves.Value(); n != 1 {
		t.Errorf("replayed_observes = %d, want 1", n)
	}

	coord.mu.Lock()
	r := coord.runs[id]
	created, paths := r.created, len(r.leased[ls.Unit].paths)
	coord.mu.Unlock()
	if created != 3 {
		t.Errorf("created = %d after one fork (+replay), want 3", created)
	}
	if paths != 3 {
		t.Errorf("unit path set = %d after one fork (+replay), want 3", paths)
	}

	next, err := coord.Observe(id, ls.Unit, ls.Epoch, 2, halt)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Subsumed {
		t.Errorf("fresh observe of the covered state should be subsumed, got %+v", next)
	}
}

// TestFinishedRunReleasesStateAndFencesLateRPCs pins the memory bound on
// a long-lived coordinator: a done run drops its platform, CSM, profile
// and frontier bookkeeping, yet Status and Result answer exactly as
// before, and an RPC from a zombie worker that lands after the run
// finished is fenced with 409 instead of touching the released state.
func TestFinishedRunReleasesStateAndFencesLateRPCs(t *testing.T) {
	tc := startCluster(t, Config{}, 1)
	cc := newCoordClient(tc.ts.URL, nil)
	id, err := cc.createRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := tc.coord.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	tc.coord.mu.Lock()
	r := tc.coord.runs[id]
	held := r.p != nil || r.policy != nil || r.profile != nil ||
		r.pending != nil || r.requeue != nil || r.leased != nil || r.done != nil
	tc.coord.mu.Unlock()
	if held {
		t.Error("finished run still holds exploration state")
	}

	st, err := cc.status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.CSMStates != res.CSMStates || st.Created != res.PathsCreated ||
		st.Retired != res.PathsCreated || st.Skipped != res.PathsSkipped {
		t.Errorf("status after release = %+v, result %d paths / %d skipped / %d CSM states",
			st, res.PathsCreated, res.PathsSkipped, res.CSMStates)
	}
	if again, err := tc.coord.Result(id); err != nil || again != res {
		t.Errorf("Result after release = %p, %v; want %p", again, err, res)
	}

	// Unit 1 epoch 1 is the genesis unit, long retired: a worker that
	// still believes it holds it must be fenced on every RPC.
	p, err := report.BuildPlatform(report.DR5, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	rep := core.SeedCheckpoint(p, "merge-all", nil).EncodeBinary()
	if _, err := cc.observe(id, 1, 1, 1, vvp.State{}.AppendBinary(nil)); !errors.Is(err, ErrStale) {
		t.Errorf("late observe: err = %v, want ErrStale", err)
	}
	if err := cc.report(id, 1, 1, rep); !errors.Is(err, ErrStale) {
		t.Errorf("late report: err = %v, want ErrStale", err)
	}
	if err := cc.heartbeat(id, 1, 1); !errors.Is(err, ErrStale) {
		t.Errorf("late heartbeat: err = %v, want ErrStale", err)
	}
	if err := cc.fail(id, 1, 1, "zombie"); !errors.Is(err, ErrStale) {
		t.Errorf("late fail: err = %v, want ErrStale", err)
	}
}
