package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/cluster"
	"symsim/internal/core"
	"symsim/internal/httpx"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// fleet is one in-process cluster: a coordinator on a loopback listener
// and single-slot workers that reach it over HTTP.
type fleet struct {
	coord    *cluster.Coordinator
	coordReg *obs.Registry
	srv      *http.Server
	url      string
	served   chan struct{}
	cancel   context.CancelFunc
	workers  sync.WaitGroup
	timers   []*rpcTimer
	regs     []*obs.Registry
	tr       atomic.Pointer[tracer] // the tracer of the current pass, nil untraced
	build    buildTimes
}

// startFleet starts the coordinator and n workers and returns once every
// worker has sent its first lease poll: the point at which the fleet
// accepts work. Workers take their platforms from warm, which stands for
// the platform cache a long-lived worker has filled; the coordinator
// builds one per run, as it always does.
func startFleet(n int, warm map[string]*core.Platform) (*fleet, error) {
	f := &fleet{coordReg: obs.NewRegistry(), served: make(chan struct{})}
	f.coord = cluster.NewCoordinator(cluster.Config{
		Metrics: f.coordReg,
		BuildPlatform: func(design, bench string) (*core.Platform, error) {
			return buildPlatform(f.tr.Load(), &f.build, -1, design+"/"+bench, design, bench)
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.coord.Close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: f.coord.Handler()}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < n; i++ {
		t := newRPCTimer(httpx.NewTransport())
		reg := obs.NewRegistry()
		f.timers = append(f.timers, t)
		f.regs = append(f.regs, reg)
		w := &cluster.Worker{
			Coordinator: f.url,
			Client:      &http.Client{Timeout: httpx.Unary.Timeout, Transport: t},
			Name:        fmt.Sprintf("w%d", i),
			Slots:       1,
			Metrics:     reg,
			BuildPlatform: func(design, bench string) (*core.Platform, error) {
				if p := warm[design+"/"+bench]; p != nil {
					return p, nil
				}
				return report.BuildPlatform(report.Design(design), bench)
			},
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	for _, t := range f.timers {
		select {
		case <-t.polling:
		case <-time.After(30 * time.Second):
			f.stop()
			return nil, fmt.Errorf("worker did not poll within 30s")
		}
	}
	return f, nil
}

// stop closes the coordinator, which ends the workers' lease polls, waits
// for every worker and closes the listener.
func (f *fleet) stop() {
	for _, t := range f.timers {
		t.stopping.Store(true)
	}
	f.cancel()
	f.coord.Close()
	f.workers.Wait()
	_ = f.srv.Close() // the workers have stopped; nothing is in flight
	<-f.served
}

// workerSum sums a counter family over the workers' registries.
func (f *fleet) workerSum(family string) float64 {
	t := 0.0
	for _, reg := range f.regs {
		t += promSum(reg, family, "")
	}
	return t
}

// fleetCounters is a snapshot of the cluster counters a pass reads.
type fleetCounters struct {
	evals, sweeps, leaseEmpty, localSubsumed, observeRPCs float64
	coordSubsumed, spilled, requeued                      float64
}

func (f *fleet) counters() fleetCounters {
	return fleetCounters{
		evals:         f.workerSum("symsim_vvp_gate_evals_total"),
		sweeps:        f.workerSum("symsim_vvp_kernel_sweeps_total"),
		leaseEmpty:    f.workerSum("symsim_cluster_worker_lease_empty_total"),
		localSubsumed: f.workerSum("symsim_cluster_worker_local_subsumed_total"),
		observeRPCs:   f.workerSum("symsim_cluster_worker_observe_rpcs_total"),
		coordSubsumed: promSum(f.coordReg, "symsim_cluster_observes_subsumed_total", ""),
		spilled:       promSum(f.coordReg, "symsim_cluster_observes_spilled_total", ""),
		requeued:      promSum(f.coordReg, "symsim_cluster_units_requeued_total", ""),
	}
}

// fleetLayers is one traced pass's cluster figures.
type fleetLayers struct {
	rpc                    map[string][]time.Duration
	before, after          fleetCounters
	build                  *buildTimes // the pass's fleet is fresh, so its totals are the pass's
	runs                   []float64   // s
	paths, skipped, cycles float64
}

func runFleet(r *runner) error {
	warm := make(map[string]*core.Platform)
	for _, k := range cells() {
		p, err := report.BuildPlatform(report.Design(k.Design), k.Bench)
		if err != nil {
			return err
		}
		warm[k.Design+"/"+k.Bench] = p
	}
	var setups []time.Duration
	var plain, traced []pass
	var layers []*fleetLayers
	// 6 untraced passes give 108 run latencies, at least ten beyond p90.
	sched := r.schedule(6)
	for i := 0; ; i++ {
		ok, tracedPass := sched.next()
		if !ok {
			break
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		// A fresh fleet per pass: the coordinator keeps every run it was
		// given in memory, so a long-lived one would grow with the run.
		t0 := time.Now()
		f, err := startFleet(r.workers, warm)
		if err != nil {
			return fmt.Errorf("starting fleet: %w", err)
		}
		setups = append(setups, time.Since(t0))
		tr := r.tracerFor(tracedPass)
		f.tr.Store(tr)
		for _, t := range f.timers {
			t.tr.Store(tr)
		}
		fl := &fleetLayers{before: f.counters()}
		m0 := readMem()
		start := time.Now()
		root := tr.begin("pass", -1, fmt.Sprintf("pass%d", i))
		fp, err := fleetPass(r, f, tr, root, passSeed(r.seed, i))
		tr.end(root)
		if err != nil {
			f.stop()
			return err
		}
		p := fp.pass
		p.wall = time.Since(start)
		p.mem = m0.to(readMem())
		p.root = root
		r.logPass(i, tracedPass, p)
		if tracedPass {
			fl.after = f.counters()
			fl.rpc = make(map[string][]time.Duration)
			for _, t := range f.timers {
				for ep, ds := range t.take() {
					fl.rpc[ep] = append(fl.rpc[ep], ds...)
				}
			}
			fl.build = &f.build
			fl.runs, fl.skipped = fp.runs, fp.skipped
			fl.paths, fl.cycles = p.paths, p.cycles
			traced = append(traced, p)
			layers = append(layers, fl)
		} else {
			plain = append(plain, p)
		}
		f.stop()
	}
	// More set-ups, so the set-up median rests on several samples.
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		f, err := startFleet(r.workers, warm)
		if err != nil {
			return fmt.Errorf("starting fleet: %w", err)
		}
		setups = append(setups, time.Since(t0))
		f.stop()
	}
	r.report(setups, plain, traced)
	if r.trace {
		r.fleetLayers(layers)
	}
	return nil
}

// fleetPassResult is one fleet pass: the pass figures, the run latencies
// in seconds and the paths the runs skipped.
type fleetPassResult struct {
	pass
	runs    []float64
	skipped float64
}

// fleetPass runs the 18 cells as cluster runs over HTTP in the order the
// seed selects, one at a time: it submits a cell, awaits its run and
// submits the next, so a run's latency is the fleet's time for that one
// design. Runs that overlap share the workers in an order the seed and
// the scheduler decide; in trials on a 2-vCPU host that doubled the
// spread of every fleet figure between runs. Every result is checked
// against the single-node golden dichotomy and tie-offs and the cluster's
// own path accounting (every created path retired).
func fleetPass(r *runner, f *fleet, tr *tracer, root int, seed int64) (fleetPassResult, error) {
	type outcome struct {
		key     Key
		id      string
		lat     time.Duration
		res     *core.Result
		created int
		retired int
		skipped int
		err     error
	}
	var outs []outcome
	for _, k := range cellOrder(seed) {
		o := outcome{key: k}
		submitted := time.Now()
		id, err := submitRun(f.url, k)
		if err != nil {
			return fleetPassResult{}, fmt.Errorf("%s: submitting run: %w", k, err)
		}
		o.id = id
		o.res, o.err = f.coord.Wait(r.ctx, id)
		end := time.Now()
		o.lat = end.Sub(submitted)
		tr.add("fleet.run", root, id, submitted, end)
		if o.err == nil {
			var st cluster.RunStatusView
			st, o.err = f.coord.Status(id)
			o.created, o.retired, o.skipped = st.Created, st.Retired, st.Skipped
		}
		outs = append(outs, o)
	}

	var fp fleetPassResult
	for _, o := range outs {
		r.attempted++
		err := o.err
		if err == nil {
			obsd := fromResult(o.res)
			obsd.PathsCreated, obsd.PathsSkipped, obsd.Cycles = -1, -1, -1
			err = check(r.golden[o.key.String()], obsd)
		}
		if err == nil && o.created != o.retired {
			err = fmt.Errorf("%s: cluster run %s created %d paths but retired %d", o.key, o.id, o.created, o.retired)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		fp.items++
		fp.latency = append(fp.latency, millis(o.lat))
		fp.paths += float64(o.created)
		fp.cycles += float64(o.res.SimulatedCycles)
		fp.skipped += float64(o.skipped)
		fp.runs = append(fp.runs, seconds(o.lat))
	}
	return fp, nil
}

// submitRun posts one cell to the coordinator and returns the run's ID.
func submitRun(url string, k Key) (string, error) {
	body, _ := json.Marshal(cluster.RunSpec{Design: k.Design, Bench: k.Bench})
	resp, err := httpx.Unary.Post(url+"/cluster/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	_ = resp.Body.Close() // fully read
	if err != nil || resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("%s %v", resp.Status, err)
	}
	return created.ID, nil
}

// fleetLayers reports the per-layer medians over the traced passes.
func (r *runner) fleetLayers(ls []*fleetLayers) {
	col := func(f func(*fleetLayers) float64) float64 { return medianOver(ls, f) }
	var builds []*buildTimes
	for _, l := range ls {
		builds = append(builds, l.build)
	}
	r.buildLayers(builds)
	delta := func(f func(fleetCounters) float64) func(*fleetLayers) float64 {
		return func(l *fleetLayers) float64 { return f(l.after) - f(l.before) }
	}
	r.setLayer("core.paths", col(func(l *fleetLayers) float64 { return l.paths }))
	r.setLayer("core.skipped", col(func(l *fleetLayers) float64 { return l.skipped }))
	r.setLayer("core.cycles", col(func(l *fleetLayers) float64 { return l.cycles }))
	r.setLayer("vvp.gate_evals", col(delta(func(c fleetCounters) float64 { return c.evals })))
	r.setLayer("vvp.sweeps", col(delta(func(c fleetCounters) float64 { return c.sweeps })))
	r.setLayer("vvp.evals_per_cycle", col(func(l *fleetLayers) float64 { return (l.after.evals - l.before.evals) / l.cycles }))
	observes := func(c fleetCounters) float64 { return c.localSubsumed + c.observeRPCs }
	r.setLayer("csm.observes", col(delta(observes)))
	r.setLayer("csm.skip_ratio", col(func(l *fleetLayers) float64 {
		sub := func(c fleetCounters) float64 { return c.localSubsumed + c.coordSubsumed }
		return (sub(l.after) - sub(l.before)) / (observes(l.after) - observes(l.before))
	}))
	for _, ep := range []string{"lease", "observe", "report", "heartbeat"} {
		r.setLayer("cluster.rpc."+ep+".p50_ms", col(func(l *fleetLayers) float64 {
			var ms []float64
			for _, d := range l.rpc[ep] {
				ms = append(ms, millis(d))
			}
			return median(ms)
		}))
		r.setLayer("cluster.rpc."+ep+".count", col(func(l *fleetLayers) float64 { return float64(len(l.rpc[ep])) }))
	}
	r.setLayer("cluster.lease_empty", col(delta(func(c fleetCounters) float64 { return c.leaseEmpty })))
	r.setLayer("cluster.local_subsume_ratio", col(func(l *fleetLayers) float64 {
		return (l.after.localSubsumed - l.before.localSubsumed) / (observes(l.after) - observes(l.before))
	}))
	r.setLayer("cluster.spilled", col(delta(func(c fleetCounters) float64 { return c.spilled })))
	r.setLayer("cluster.requeued", col(delta(func(c fleetCounters) float64 { return c.requeued })))
	r.setLayer("cluster.run_s", col(func(l *fleetLayers) float64 { return median(l.runs) }))
}
