package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/core"
	"symsim/internal/httpx"
	"symsim/internal/obs"
	"symsim/internal/service"
)

// serviceJobs is the size of one service-mix pass: enough submissions
// that every key's first submit misses, repeats hit, and at least ten jobs
// of the pass lie beyond its 90th percentile.
const serviceJobs = 200

// daemon is one in-process symsimd: a Service on a fresh data dir behind
// service.Handler on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	dir  string
	reg  *obs.Registry
	done chan struct{}
}

// startDaemon opens the store and the listener and returns once /healthz
// answers: the point at which the service accepts its first submission.
func startDaemon(r *runner, dir string, build func(design, bench string) (*core.Platform, error)) (*daemon, error) {
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{
		DataDir:       dir,
		Workers:       r.workers,
		Metrics:       reg,
		BuildPlatform: build,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: service.Handler(svc)},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		reg:  reg,
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := httpx.Unary.Get(d.url + "/healthz")
	if err == nil {
		_ = resp.Body.Close() // only the status is read
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener, drains the service and removes its data dir.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close() // Shutdown timed out; force the rest closed
	}
	<-d.done
	d.svc.Close()
	if err := os.RemoveAll(d.dir); err != nil {
		fmt.Fprintln(os.Stderr, "symbench: removing service data dir:", err)
	}
}

// jobSample is what a client measured for one job.
type jobSample struct {
	hit        bool
	latency    time.Duration // submit until the result is fetched
	submit     time.Duration
	result     time.Duration
	terminalAt time.Time // when the SSE terminal event arrived
	view       service.JobView
	err        error
	refused    bool
}

// serviceLayers is one traced pass's service-side figures.
type serviceLayers struct {
	build              buildTimes
	samples            []jobSample
	coalesced, cpu     float64
	evals, sweeps      float64
	cycles, paths      float64
	observes, subsumed float64
}

func runServiceMix(r *runner) error {
	base, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * r.workers}}
	defer client.CloseIdleConnections()

	var setups []time.Duration
	var plain, traced []pass
	var layers []*serviceLayers
	sched := r.schedule(1)
	for i := 0; ; i++ {
		ok, tracedPass := sched.next()
		if !ok {
			break
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		tr := r.tracerFor(tracedPass)
		sl := &serviceLayers{}
		var build func(design, bench string) (*core.Platform, error)
		if tr != nil {
			build = func(design, bench string) (*core.Platform, error) {
				return buildPlatform(tr, &sl.build, -1, design+"/"+bench, design, bench)
			}
		}
		t0 := time.Now()
		d, err := startDaemon(r, filepath.Join(base, fmt.Sprintf("pass%d", i)), build)
		if err != nil {
			return fmt.Errorf("starting symsimd: %w", err)
		}
		setups = append(setups, time.Since(t0))

		jobs := jobStream(passSeed(r.seed, i), serviceJobs)
		m0 := readMem()
		start := time.Now()
		root := tr.begin("pass", -1, fmt.Sprintf("pass%d", i))
		samples := drive(r.ctx, client, d, tr, root, jobs, r.workers, r.golden)
		tr.end(root)
		p := pass{wall: time.Since(start), root: root, mem: m0.to(readMem())}
		for _, s := range samples {
			r.attempted++
			if s.err != nil {
				r.fail(s.err)
				continue
			}
			p.items++
			p.latency = append(p.latency, millis(s.latency))
		}
		p.cycles = promSum(d.reg, "symsim_cycles_total", "")
		p.paths = promSum(d.reg, "symsim_paths_total", "")
		r.logPass(i, tracedPass, p)
		if tracedPass {
			m := d.svc.MetricsSnapshot()
			sl.samples = samples
			sl.coalesced = float64(m.Coalesced)
			sl.evals = promSum(d.reg, "symsim_vvp_gate_evals_total", "")
			sl.sweeps = promSum(d.reg, "symsim_vvp_kernel_sweeps_total", "")
			sl.observes = promSum(d.reg, "symsim_csm_decisions_total", "")
			sl.subsumed = promSum(d.reg, "symsim_csm_decisions_total", "verdict=subsumed")
			sl.cycles, sl.paths = p.cycles, p.paths
			for _, s := range samples {
				sl.cpu += s.view.CPUSeconds
			}
			traced = append(traced, p)
			layers = append(layers, sl)
		} else {
			plain = append(plain, p)
		}
		d.stop()
	}
	// More set-ups, so the set-up median rests on many samples.
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		d, err := startDaemon(r, filepath.Join(base, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return fmt.Errorf("starting symsimd: %w", err)
		}
		setups = append(setups, time.Since(t0))
		d.stop()
	}
	r.report(setups, plain, traced)
	if r.trace {
		r.serviceLayers(layers)
	}
	return nil
}

// drive runs the closed loop: clients each take the next job of the
// stream, submit it, follow its event stream to a terminal state, fetch
// and check its result, and only then take another.
func drive(ctx context.Context, client *http.Client, d *daemon, tr *tracer, root int, jobs []Key, clients int, golden map[string]Golden) []jobSample {
	samples := make([]jobSample, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				samples[i] = oneJob(client, d, tr, root, jobs[i], i, golden[jobs[i].String()])
			}
		}()
	}
	wg.Wait()
	for i := range samples {
		if samples[i].err == nil && samples[i].latency == 0 {
			samples[i].err = fmt.Errorf("job %d (%s): not run: %v", i, jobs[i], ctx.Err())
		}
	}
	return samples
}

func oneJob(client *http.Client, d *daemon, tr *tracer, root int, k Key, i int, g Golden) jobSample {
	var s jobSample
	run := fmt.Sprintf("job%d", i)
	js := tr.begin("service.job", root, run)
	defer tr.end(js)
	spec := service.JobSpec{Design: k.Design, Bench: k.Bench, Policy: k.Policy, MemX: k.MemX}
	if k.Policy == "clustered" {
		spec.K = 4
	}
	body, _ := json.Marshal(spec)
	t0 := time.Now()
	sp := tr.begin("service.submit", js, run)
	resp, err := client.Post(d.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		s.err = fmt.Errorf("%s: submit: %w", k, err)
		return s
	}
	var view service.JobView
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // read-only body
		tr.end(sp)
		s.refused = true
		s.err = fmt.Errorf("%s: submit: %s: %s", k, resp.Status, strings.TrimSpace(string(msg)))
		return s
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	_ = resp.Body.Close() // read-only body
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		s.err = fmt.Errorf("%s: submit: %w", k, err)
		return s
	}
	s.hit, s.submit = view.Cached, t1.Sub(t0)

	ev := tr.begin("service.events", js, run)
	state, err := awaitTerminal(client, d.url+"/jobs/"+view.ID+"/events")
	tr.end(ev)
	s.terminalAt = time.Now()
	if err == nil && state != service.StateDone {
		err = fmt.Errorf("job ended %s", state)
	}
	if err != nil {
		s.err = fmt.Errorf("%s: events: %w", k, err)
		return s
	}

	rs := tr.begin("service.result", js, run)
	t2 := time.Now()
	var sum service.ResultSummary
	resp, err = client.Get(d.url + "/jobs/" + view.ID + "/result")
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s", resp.Status)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&sum)
		}
		_ = resp.Body.Close() // read-only body
	}
	t3 := time.Now()
	tr.end(rs)
	if err != nil {
		s.err = fmt.Errorf("%s: result: %w", k, err)
		return s
	}
	s.result, s.latency = t3.Sub(t2), t3.Sub(t0)
	s.view, _ = d.svc.Job(view.ID)
	s.err = check(g, fromSummary(&sum))
	return s
}

// awaitTerminal reads a job's SSE stream until a terminal state event.
func awaitTerminal(client *http.Client, url string) (service.State, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type == "state" {
			switch ev.State {
			case service.StateDone, service.StateFailed, service.StateCanceled:
				return ev.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// serviceLayers reports the per-layer medians over the traced passes.
func (r *runner) serviceLayers(ls []*serviceLayers) {
	col := func(f func(*serviceLayers) float64) float64 { return medianOver(ls, f) }
	var builds []*buildTimes
	for _, l := range ls {
		builds = append(builds, &l.build)
	}
	r.buildLayers(builds)
	pick := func(l *serviceLayers, want func(jobSample) bool, val func(jobSample) float64) []float64 {
		var xs []float64
		for _, s := range l.samples {
			if s.err == nil && want(s) {
				xs = append(xs, val(s))
			}
		}
		return xs
	}
	hit := func(s jobSample) bool { return s.hit }
	miss := func(s jobSample) bool { return !s.hit }
	all := func(jobSample) bool { return true }
	// A miss that ran its own analysis (a coalesced follower never starts).
	ran := func(s jobSample) bool { return !s.hit && s.view.Started != 0 && s.view.Attempts > 0 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	r.setLayer("core.paths", col(func(l *serviceLayers) float64 { return l.paths }))
	r.setLayer("core.cycles", col(func(l *serviceLayers) float64 { return l.cycles }))
	r.setLayer("core.skipped", col(func(l *serviceLayers) float64 { return l.subsumed }))
	r.setLayer("vvp.gate_evals", col(func(l *serviceLayers) float64 { return l.evals }))
	r.setLayer("vvp.evals_per_cycle", col(func(l *serviceLayers) float64 { return l.evals / l.cycles }))
	r.setLayer("vvp.sweeps", col(func(l *serviceLayers) float64 { return l.sweeps }))
	r.setLayer("csm.observes", col(func(l *serviceLayers) float64 { return l.observes }))
	r.setLayer("csm.skip_ratio", col(func(l *serviceLayers) float64 { return l.subsumed / l.observes }))
	r.setLayer("service.submit_hit_ms", col(func(l *serviceLayers) float64 {
		return median(pick(l, hit, func(s jobSample) float64 { return millis(s.submit) }))
	}))
	r.setLayer("service.submit_miss_ms", col(func(l *serviceLayers) float64 {
		return median(pick(l, miss, func(s jobSample) float64 { return millis(s.submit) }))
	}))
	r.setLayer("service.queue_wait_p50_ms", col(func(l *serviceLayers) float64 {
		return quantile(pick(l, ran, func(s jobSample) float64 { return ms(s.view.Started - s.view.Submitted) }), 0.5)
	}))
	r.setLayer("service.queue_wait_p90_ms", col(func(l *serviceLayers) float64 {
		return quantile(pick(l, ran, func(s jobSample) float64 { return ms(s.view.Started - s.view.Submitted) }), 0.9)
	}))
	r.setLayer("service.run_ms", col(func(l *serviceLayers) float64 {
		return median(pick(l, ran, func(s jobSample) float64 { return ms(s.view.Finished - s.view.Started) }))
	}))
	r.setLayer("service.notify_ms", col(func(l *serviceLayers) float64 {
		return median(pick(l, miss, func(s jobSample) float64 { return ms(s.terminalAt.UnixNano() - s.view.Finished) }))
	}))
	r.setLayer("service.result_ms", col(func(l *serviceLayers) float64 {
		return median(pick(l, all, func(s jobSample) float64 { return millis(s.result) }))
	}))
	r.setLayer("service.hit_p50_ms", col(func(l *serviceLayers) float64 {
		return median(pick(l, hit, func(s jobSample) float64 { return millis(s.latency) }))
	}))
	r.setLayer("service.cache_hit_ratio", col(func(l *serviceLayers) float64 {
		return float64(len(pick(l, hit, func(jobSample) float64 { return 0 }))) / float64(len(l.samples))
	}))
	r.setLayer("service.coalesced", col(func(l *serviceLayers) float64 { return l.coalesced }))
	r.setLayer("service.cpu_s", col(func(l *serviceLayers) float64 { return l.cpu }))
	r.setLayer("service.rejected", col(func(l *serviceLayers) float64 {
		n := 0
		for _, s := range l.samples {
			if s.refused {
				n++
			}
		}
		return float64(n)
	}))
}
