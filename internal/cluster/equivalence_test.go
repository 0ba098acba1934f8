package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// testCluster is one in-process fleet: a coordinator behind a real HTTP
// server and n workers pulling from it over the wire — the full
// lease/observe/report round-trip, nothing short-circuited.
type testCluster struct {
	coord   *Coordinator
	ts      *httptest.Server
	workers []*Worker
}

// startCluster spins the fleet up and registers its teardown on t.
func startCluster(t *testing.T, cfg Config, n int) *testCluster {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	coord := NewCoordinator(cfg)
	ts := httptest.NewServer(coord.Handler())
	tc := &testCluster{coord: coord, ts: ts}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("w%d", i),
			Metrics:     obs.NewRegistry(),
			PollEvery:   10 * time.Millisecond,
		}
		tc.workers = append(tc.workers, w)
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		coord.Close()
		ts.Close()
	})
	return tc
}

// requireDichotomyEqual asserts the cluster result agrees with the
// single-node reference on everything the engine-equivalence contract
// guarantees: the exercisable set and the tie-off list. Path counts,
// cycles and CSM state counts may legally differ — merge order does —
// exactly as a multi-worker run may differ single-node; the dichotomy is a
// fixpoint of sound over-approximations and may not.
func requireDichotomyEqual(t *testing.T, got, want *core.Result) {
	t.Helper()
	if !got.Complete {
		t.Fatalf("cluster run degraded: %+v", got.Degradation)
	}
	if got.ExercisableCount != want.ExercisableCount {
		t.Errorf("exercisable count diverged: cluster %d vs single-node %d",
			got.ExercisableCount, want.ExercisableCount)
	}
	for gi := range want.ExercisableGates {
		if got.ExercisableGates[gi] != want.ExercisableGates[gi] {
			t.Fatalf("gate %d exercisability diverged", gi)
		}
	}
	to, tw := got.TieOffs(), want.TieOffs()
	if len(to) != len(tw) {
		t.Fatalf("tie-off counts diverged: cluster %d vs single-node %d", len(to), len(tw))
	}
	for i := range to {
		if to[i] != tw[i] {
			t.Fatalf("tie-off %d diverged: %+v vs %+v", i, to[i], tw[i])
		}
	}
}

// TestClusterEquivalenceEndToEnd is the distributed differential check:
// a 3-worker fleet must reproduce the single-node kernel dichotomy and
// tie-off lists exactly, on all three CPUs and under both X-memory
// policies. ShardSize 2 forces many lease/observe/report round-trips so
// the frontier really is partitioned across workers, not handed out as
// one unit.
func TestClusterEquivalenceEndToEnd(t *testing.T) {
	tc := startCluster(t, Config{ShardSize: 2}, 3)
	for _, d := range []report.Design{report.BM32, report.OMSP430, report.DR5} {
		for _, memx := range []string{"verilog", "sound"} {
			t.Run(fmt.Sprintf("%s/memx=%s", d, memx), func(t *testing.T) {
				p, err := report.BuildPlatform(d, "tHold")
				if err != nil {
					t.Fatal(err)
				}
				mx, err := cliflags.ParseMemX(memx)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Analyze(p, core.Config{
					MemX: mx, Metrics: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}

				id, err := tc.coord.NewRun(RunSpec{
					Design: string(d), Bench: "tHold", MemX: memx,
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				defer cancel()
				got, err := tc.coord.Wait(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				requireDichotomyEqual(t, got, want)

				st, err := tc.coord.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != "done" || st.Retired != st.Created {
					t.Errorf("exactly-once accounting violated: state=%s created=%d retired=%d",
						st.State, st.Created, st.Retired)
				}
			})
		}
	}
}

// TestClusterPolicySweep checks the remaining authoritative policies
// round-trip through the remote CSM: clustered and exact runs must each
// match their single-node counterpart's dichotomy.
func TestClusterPolicySweep(t *testing.T) {
	tc := startCluster(t, Config{ShardSize: 2}, 2)
	for _, pc := range []struct {
		policy string
		k      int
		max    int
	}{
		{policy: "clustered", k: 3},
		{policy: "exact", max: 64},
	} {
		t.Run(pc.policy, func(t *testing.T) {
			p, err := report.BuildPlatform(report.DR5, "tHold")
			if err != nil {
				t.Fatal(err)
			}
			m, err := cliflags.NewPolicy(pc.policy, pc.k, pc.max)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Analyze(p, core.Config{
				Policy: m, Metrics: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}

			id, err := tc.coord.NewRun(RunSpec{
				Design: "dr5", Bench: "tHold",
				Policy: pc.policy, K: pc.k, MaxStates: pc.max,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			got, err := tc.coord.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			requireDichotomyEqual(t, got, want)
		})
	}
}

// TestClusterRejectsBadSpecs pins the validation surface of NewRun: every
// spec a worker could never execute is a 400-class ErrBadPayload at
// submission, not a run that burns MaxAttempts per unit before failing.
func TestClusterRejectsBadSpecs(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	defer coord.Close()
	for _, spec := range []RunSpec{
		{},                               // no design/bench
		{Design: "dr5"},                  // no bench
		{Design: "nope", Bench: "tHold"}, // unknown design
		{Design: "dr5", Bench: "tHold", Policy: "constrained"}, // needs local file
		{Design: "dr5", Bench: "tHold", MemX: "bogus"},         // unknown MemX
	} {
		if _, err := coord.NewRun(spec); !errors.Is(err, ErrBadPayload) {
			t.Errorf("spec %+v: err = %v, want ErrBadPayload", spec, err)
		}
	}
}

// TestClusterIgnoresRetiredEngineMember posts a run spec that still names
// an engine, as clients written before the engine choice was retired do:
// the coordinator accepts it, normalizes it to the same spec as one
// without the member, and serves a byte-identical result.
func TestClusterIgnoresRetiredEngineMember(t *testing.T) {
	tc := startCluster(t, Config{}, 1)
	run := func(body string) (RunSpec, []byte) {
		t.Helper()
		resp, err := http.Post(tc.ts.URL+"/cluster/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var created createRunResponse
		err = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("POST %s: status %s, decode %v", body, resp.Status, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if _, err := tc.coord.Wait(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
		st, err := tc.coord.Status(created.ID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.Get(tc.ts.URL + "/cluster/runs/" + created.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("result: status %s, read %v", res.Status, err)
		}
		return st.Spec, data
	}
	legacySpec, legacy := run(`{"design":"dr5","bench":"tea8","engine":"interp"}`)
	plainSpec, plain := run(`{"design":"dr5","bench":"tea8"}`)
	if legacySpec != plainSpec {
		t.Errorf("normalized specs differ: with engine %+v, without %+v", legacySpec, plainSpec)
	}
	if !bytes.Equal(legacy, plain) {
		t.Errorf("results differ:\n with engine %s\n without    %s", legacy, plain)
	}
}

// TestClusterRejectsConstrainedActionably pins the shape of the
// constrained-policy rejection: a 400-class ErrBadPayload whose message
// says WHY (the fact file and state spec are local) and what to do
// instead — not the generic unknown-policy error.
func TestClusterRejectsConstrainedActionably(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	defer coord.Close()
	_, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold", Policy: "constrained"})
	if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
	msg := err.Error()
	if strings.Contains(msg, "unknown policy") {
		t.Errorf("constrained rejected as unknown: %q", msg)
	}
	for _, want := range []string{"-constraints", "locally"} {
		if !strings.Contains(msg, want) {
			t.Errorf("rejection %q does not mention %q", msg, want)
		}
	}
}
