package main

import (
	"fmt"
	"time"
)

// endToEnd lists the metrics an untraced run reports, on every workload.
// A work item is a cell (matrix), a job (service-mix) or a cluster run
// (fleet); its latency runs from the moment it is handed to the program
// until its checked output is back.
var endToEnd = []metricDecl{
	{"setup_s", "s"},        // until the workload accepts its first work item (median of several set-ups)
	{"wall_s", "s"},         // one pass over the workload's fixed work set (median over passes)
	{"cycles_per_s", "1/s"}, // simulated cycles per host second
	{"paths_per_s", "1/s"},  // paths created per host second
	{"job_p50_ms", "ms"},    // work-item latency, median
	{"job_p90_ms", "ms"},    // work-item latency, 90th percentile (runs are sized for >= 10 items beyond it)
	{"jobs_per_s", "1/s"},   // completed work items per second
	{"rss_peak_mb", "MB"},   // peak resident memory of the process
}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer a workload never calls reports 0: the matrix makes no service or
// cluster calls, and the service and fleet run core and bespoke inside
// the program where the benchmark cannot time them.
var perLayer = []metricDecl{
	// Platform build: report.BuildPlatform, split into its three calls.
	{"report.build_s", "s"}, {"report.builds", "count"},
	{"prog.assemble_s", "s"}, {"cpu.elaborate_s", "s"}, {"lint.run_s", "s"},
	// core.Analyze; sched is analyze minus simulation busy time minus observe time.
	{"core.analyze_s", "s"}, {"core.sched_s", "s"},
	{"core.paths", "count"}, {"core.skipped", "count"}, {"core.cycles", "count"},
	// Gate simulation, from Result.BusyTime and the symsim_vvp_* counters.
	{"vvp.busy_s", "s"}, {"vvp.ns_per_cycle", "ns"},
	{"vvp.gate_evals", "count"}, {"vvp.evals_per_cycle", "count"}, {"vvp.sweeps", "count"},
	// CSM observe, timed by the decorator around the policy (matrix) or
	// counted from symsim_csm_decisions_total (service, fleet).
	{"csm.observes", "count"}, {"csm.observe_s", "s"}, {"csm.observe_p50_us", "us"}, {"csm.skip_ratio", "ratio"},
	{"bespoke.generate_s", "s"},
	// symsimd, seen from its HTTP clients and its JobView timestamps.
	{"service.submit_hit_ms", "ms"}, {"service.submit_miss_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"}, {"service.queue_wait_p90_ms", "ms"},
	{"service.run_ms", "ms"}, {"service.notify_ms", "ms"}, {"service.result_ms", "ms"},
	{"service.hit_p50_ms", "ms"}, {"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"}, {"service.cpu_s", "s"}, {"service.rejected", "count"},
	// Cluster RPCs, timed by the workers' RoundTripper.
	{"cluster.rpc.lease.p50_ms", "ms"}, {"cluster.rpc.lease.count", "count"},
	{"cluster.rpc.observe.p50_ms", "ms"}, {"cluster.rpc.observe.count", "count"},
	{"cluster.rpc.report.p50_ms", "ms"}, {"cluster.rpc.report.count", "count"},
	{"cluster.rpc.heartbeat.p50_ms", "ms"}, {"cluster.rpc.heartbeat.count", "count"},
	{"cluster.lease_empty", "count"}, {"cluster.local_subsume_ratio", "ratio"},
	{"cluster.spilled", "count"}, {"cluster.requeued", "count"}, {"cluster.run_s", "s"},
	// Go runtime, per pass.
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_count", "count"}, {"runtime.gc_pause_s", "s"},
	// The work-item latency tail under the reporting rule.
	{"job.tail_pct", "%"}, {"job.tail_ms", "ms"}, {"job.samples", "count"},
	// Self time per layer in a traced pass, and what tracing cost.
	{"self.harness_s", "s"}, {"self.build_s", "s"}, {"self.core_s", "s"}, {"self.csm_s", "s"},
	{"self.bespoke_s", "s"}, {"self.service_s", "s"}, {"self.cluster_s", "s"},
	{"trace.wall_s", "s"}, {"trace.overhead_s", "s"}, {"trace.unattributed_frac", "ratio"},
}

type metricDecl struct{ name, unit string }

func unitOf(list []metricDecl, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic(fmt.Sprintf("symbench: metric %q is not declared", name))
}

func (r *runner) setE2E(name string, v float64) { r.e2e[name] = metric{v, unitOf(endToEnd, name)} }

func (r *runner) setLayer(name string, v float64) { r.layer[name] = metric{v, unitOf(perLayer, name)} }

// pass is what one pass over a workload's work set measured.
type pass struct {
	wall    time.Duration
	items   int
	paths   float64
	cycles  float64
	latency []float64 // per item, ms
	mem     memDelta
	root    int // the pass span, -1 when untraced
}

// report fills every metric from the set-up samples and the untraced and
// traced passes. Layer metrics the workload set stay as set; the rest
// read 0.
func (r *runner) report(setups []time.Duration, plain, traced []pass) {
	var su []float64
	for _, d := range setups {
		su = append(su, seconds(d))
	}
	var walls, cps, pps, jps, lat []float64
	for _, p := range plain {
		w := seconds(p.wall)
		walls = append(walls, w)
		cps = append(cps, p.cycles/w)
		pps = append(pps, p.paths/w)
		jps = append(jps, float64(p.items)/w)
		lat = append(lat, p.latency...)
	}
	r.setE2E("setup_s", median(su))
	r.setE2E("wall_s", median(walls))
	r.setE2E("cycles_per_s", median(cps))
	r.setE2E("paths_per_s", median(pps))
	r.setE2E("job_p50_ms", quantile(lat, 0.5))
	r.setE2E("job_p90_ms", quantile(lat, 0.9))
	r.setE2E("jobs_per_s", median(jps))
	r.setE2E("rss_peak_mb", peakRSSMB())
	if !r.trace {
		return
	}

	for _, m := range perLayer {
		if _, ok := r.layer[m.name]; !ok {
			r.setLayer(m.name, 0)
		}
	}
	t := tailPercentile(lat)
	r.setLayer("job.tail_pct", t.Pct)
	r.setLayer("job.tail_ms", t.Value)
	r.setLayer("job.samples", float64(t.Samples))

	var twalls, alloc, gcs, pause []float64
	groups := map[string][]float64{}
	spans := r.tr.snapshot()
	for _, p := range traced {
		twalls = append(twalls, seconds(p.wall))
		alloc = append(alloc, p.mem.allocMB)
		gcs = append(gcs, p.mem.gcCount)
		pause = append(pause, p.mem.gcPauseS)
		self := map[string]float64{}
		total := 0.0
		for name, s := range selfTimes(spans, p.root) {
			self[selfGroup[name]] += s
			total += s
		}
		for _, g := range selfLayers {
			groups[g] = append(groups[g], self[g])
		}
		groups["unattributed"] = append(groups["unattributed"], self["harness"]/total)
	}
	r.setLayer("runtime.alloc_mb", median(alloc))
	r.setLayer("runtime.gc_count", median(gcs))
	r.setLayer("runtime.gc_pause_s", median(pause))
	for _, g := range selfLayers {
		r.setLayer("self."+g+"_s", median(groups[g]))
	}
	r.setLayer("trace.wall_s", median(twalls))
	r.setLayer("trace.overhead_s", median(twalls)-median(walls))
	r.setLayer("trace.unattributed_frac", median(groups["unattributed"]))
}

// selfLayers are the groups self time is reported for.
var selfLayers = []string{"harness", "build", "core", "csm", "bespoke", "service", "cluster"}

// selfGroup maps span names to the layer their self time is charged to.
var selfGroup = map[string]string{
	"pass": "harness", "cell": "harness", "service.job": "harness",
	"report.build": "build", "prog.assemble": "build", "cpu.elaborate": "build", "lint.run": "build",
	"core.analyze":     "core",
	"csm.observe":      "csm",
	"bespoke.generate": "bespoke",
	"service.submit":   "service", "service.events": "service", "service.result": "service",
	"fleet.run": "cluster",
}
