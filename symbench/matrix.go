package main

import (
	"fmt"
	"time"

	"symsim/internal/bespoke"
	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/obs"
)

// matrixSetup is what a matrix pass prepares before its first cell: the
// golden table its checks read, a fresh metrics registry and the seeded
// cell order. It is tiny; it is timed so that work moved into set-up
// shows.
func matrixSetup(seed int64) (map[string]Golden, *obs.Registry, []Key, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, nil, nil, err
	}
	return g, obs.NewRegistry(), cellOrder(seed), nil
}

// matrixLayers accumulates one traced pass's per-layer figures.
type matrixLayers struct {
	build                  buildTimes
	analyze, busy, observe time.Duration
	generate               time.Duration
	observes               []float64 // µs
	subsumed               int       // observes the policy answered subsumed
	paths, skipped         int
	cycles                 uint64
	evals, sweeps          float64
}

func runMatrix(r *runner) error {
	var setups []time.Duration
	// Extra set-ups beyond the one per pass, so the set-up median rests on
	// many samples even when a run makes few passes.
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, _, _, err := matrixSetup(passSeed(r.seed, -1-i)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	var plain, traced []pass
	var layers []*matrixLayers
	// 6 untraced passes give 108 cell latencies, at least ten beyond p90.
	sched := r.schedule(6)
	for i := 0; ; i++ {
		ok, tracedPass := sched.next()
		if !ok {
			break
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		tr := r.tracerFor(tracedPass)
		t0 := time.Now()
		golden, reg, order, err := matrixSetup(passSeed(r.seed, i))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))

		ml := &matrixLayers{}
		m0 := readMem()
		start := time.Now()
		run := fmt.Sprintf("pass%d", i)
		root := tr.begin("pass", -1, run)
		p := pass{root: root}
		for _, k := range order {
			r.attempted++
			c0 := time.Now()
			res, bsp, err := matrixCell(tr, ml, reg, root, k)
			if err == nil {
				o := fromResult(res)
				o.BespokeGates = bsp.BespokeGates
				err = check(golden[k.String()], o)
			}
			if err != nil {
				r.fail(err)
				continue
			}
			p.latency = append(p.latency, millis(time.Since(c0)))
			p.items++
			p.paths += float64(res.PathsCreated)
			p.cycles += float64(res.SimulatedCycles)
		}
		tr.end(root)
		p.wall = time.Since(start)
		p.mem = m0.to(readMem())
		r.logPass(i, tracedPass, p)
		if tracedPass {
			ml.evals = promSum(reg, "symsim_vvp_gate_evals_total", "")
			ml.sweeps = promSum(reg, "symsim_vvp_kernel_sweeps_total", "")
			ml.paths, ml.cycles = int(p.paths), uint64(p.cycles)
			traced = append(traced, p)
			layers = append(layers, ml)
		} else {
			plain = append(plain, p)
		}
	}
	r.report(setups, plain, traced)
	if r.trace {
		r.matrixLayers(layers)
	}
	return nil
}

// matrixCell runs one cell: build, analyze with the paper's defaults,
// generate the bespoke netlist. Traced, it times each call and wraps the
// policy in the CSM timing decorator.
func matrixCell(tr *tracer, ml *matrixLayers, reg *obs.Registry, root int, k Key) (*core.Result, *bespoke.Result, error) {
	key := k.String()
	cell := tr.begin("cell", root, key)
	defer tr.end(cell)
	p, err := buildPlatform(tr, &ml.build, cell, key, k.Design, k.Bench)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", key, err)
	}
	cfg := core.Config{Policy: csm.NewMergeAll(), Metrics: reg}
	an := tr.begin("core.analyze", cell, key)
	var tp *timedPolicy
	if tr != nil {
		if tp, err = timePolicy(cfg.Policy, tr, an, key); err != nil {
			return nil, nil, err
		}
		cfg.Policy = tp
	}
	a0 := time.Now()
	res, err := core.Analyze(p, cfg)
	a1 := time.Now()
	tr.end(an)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: analyze: %w", key, err)
	}
	gen := tr.begin("bespoke.generate", cell, key)
	bsp, err := bespoke.Generate(res)
	a2 := time.Now()
	tr.end(gen)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: bespoke: %w", key, err)
	}
	if tp != nil {
		ml.analyze += a1.Sub(a0)
		ml.generate += a2.Sub(a1)
		ml.busy += res.BusyTime
		for _, d := range tp.observe {
			ml.observe += d
			ml.observes = append(ml.observes, float64(d)/float64(time.Microsecond))
		}
		ml.subsumed += tp.skipped
		ml.skipped += res.PathsSkipped
	}
	return res, bsp, nil
}

// matrixLayers reports the per-layer medians over the traced passes.
func (r *runner) matrixLayers(ls []*matrixLayers) {
	col := func(f func(*matrixLayers) float64) float64 { return medianOver(ls, f) }
	var builds []*buildTimes
	for _, l := range ls {
		builds = append(builds, &l.build)
	}
	r.buildLayers(builds)
	r.setLayer("core.analyze_s", col(func(l *matrixLayers) float64 { return seconds(l.analyze) }))
	r.setLayer("core.sched_s", col(func(l *matrixLayers) float64 { return seconds(l.analyze - l.busy - l.observe) }))
	r.setLayer("core.paths", col(func(l *matrixLayers) float64 { return float64(l.paths) }))
	r.setLayer("core.skipped", col(func(l *matrixLayers) float64 { return float64(l.skipped) }))
	r.setLayer("core.cycles", col(func(l *matrixLayers) float64 { return float64(l.cycles) }))
	r.setLayer("vvp.busy_s", col(func(l *matrixLayers) float64 { return seconds(l.busy) }))
	r.setLayer("vvp.ns_per_cycle", col(func(l *matrixLayers) float64 { return float64(l.busy.Nanoseconds()) / float64(l.cycles) }))
	r.setLayer("vvp.gate_evals", col(func(l *matrixLayers) float64 { return l.evals }))
	r.setLayer("vvp.evals_per_cycle", col(func(l *matrixLayers) float64 { return l.evals / float64(l.cycles) }))
	r.setLayer("vvp.sweeps", col(func(l *matrixLayers) float64 { return l.sweeps }))
	r.setLayer("csm.observes", col(func(l *matrixLayers) float64 { return float64(len(l.observes)) }))
	r.setLayer("csm.observe_s", col(func(l *matrixLayers) float64 { return seconds(l.observe) }))
	r.setLayer("csm.observe_p50_us", col(func(l *matrixLayers) float64 { return median(l.observes) }))
	r.setLayer("csm.skip_ratio", col(func(l *matrixLayers) float64 { return float64(l.subsumed) / float64(len(l.observes)) }))
	r.setLayer("bespoke.generate_s", col(func(l *matrixLayers) float64 { return seconds(l.generate) }))
}
