package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/prog"
	"symsim/internal/report"
)

// The cluster throughput comparison: the same workload — every Table-1
// benchmark on the RV32E core — run back to back on one node versus
// fanned out across a 3-worker fleet behind a real HTTP coordinator. The
// recorded figure is aggregate paths/s (total paths simulated across the
// workload over wall time); BENCH_cluster.json tracks both so the
// trajectory shows the fleet's speedup.
//
// The fleet's speedup is bounded by min(workers, cores): the runs are
// independent and nothing global serializes them but the coordinator's
// microsecond-scale lock, so on >=3 cores the 3-worker aggregate clears
// the >1.5x acceptance bar. On a single-core host the same numbers
// instead measure the pure coordination overhead — the fleet can at
// best tie single-node (identical simulation work, time-sliced) minus
// the per-fork observe round-trips, which is itself a figure worth
// tracking: it is the price a worker pays for authoritative verdicts.
//
// Platforms are prebuilt and shared by both variants so neither measures
// netlist compilation — the comparison is pure exploration throughput
// including, for the fleet, all coordination overhead (lease RPCs,
// remote observes, report merging).

var (
	benchPlatOnce sync.Once
	benchPlats    map[string]*core.Platform
)

// benchSpecs is the workload: dr5 x the six Table-1 benchmarks.
func benchSpecs() []RunSpec {
	var specs []RunSpec
	for _, bm := range prog.Benchmarks {
		specs = append(specs, RunSpec{Design: "dr5", Bench: bm.Name})
	}
	return specs
}

// benchPlatform serves prebuilt platforms to both variants.
func benchPlatform(b *testing.B, design, bench string) *core.Platform {
	b.Helper()
	benchPlatOnce.Do(func() {
		benchPlats = make(map[string]*core.Platform)
		for _, s := range benchSpecs() {
			p, err := report.BuildPlatform(report.Design(s.Design), s.Bench)
			if err != nil {
				panic(err)
			}
			benchPlats[s.Design+"/"+s.Bench] = p
		}
	})
	p, ok := benchPlats[design+"/"+bench]
	if !ok {
		b.Fatalf("no prebuilt platform for %s/%s", design, bench)
	}
	return p
}

func BenchmarkClusterSingleNode(b *testing.B) {
	specs := benchSpecs()
	for _, s := range specs {
		benchPlatform(b, s.Design, s.Bench) // prebuild outside the timer
	}
	b.ResetTimer()
	paths := 0
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			res, err := core.Analyze(benchPlatform(b, s.Design, s.Bench), core.Config{
				Metrics: obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			paths += res.PathsCreated
		}
	}
	b.ReportMetric(float64(paths)/b.Elapsed().Seconds(), "paths/s")
}

func BenchmarkClusterThreeWorkers(b *testing.B) {
	specs := benchSpecs()
	build := func(design, bench string) (*core.Platform, error) {
		return benchPlatform(b, design, bench), nil
	}
	for _, s := range specs {
		benchPlatform(b, s.Design, s.Bench)
	}
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry(), BuildPlatform: build})
	ts := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &Worker{
			Coordinator:   ts.URL,
			Name:          fmt.Sprintf("bench%d", i),
			Metrics:       obs.NewRegistry(),
			PollEvery:     5 * time.Millisecond,
			BuildPlatform: build,
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}
	b.Cleanup(func() {
		cancel()
		wg.Wait()
		coord.Close()
		ts.Close()
	})

	b.ResetTimer()
	paths := 0
	for i := 0; i < b.N; i++ {
		ids := make([]string, 0, len(specs))
		for _, s := range specs {
			id, err := coord.NewRun(s)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			res, err := coord.Wait(context.Background(), id)
			if err != nil {
				b.Fatal(err)
			}
			paths += res.PathsCreated
		}
	}
	b.ReportMetric(float64(paths)/b.Elapsed().Seconds(), "paths/s")
}
