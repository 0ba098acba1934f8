package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"symsim/internal/core"
	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/csm"
	"symsim/internal/isa"
	"symsim/internal/obs"
	"symsim/internal/prog"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// buildTimes accumulates the time spent building platforms, split into
// the three steps of report.BuildPlatform when traced.
type buildTimes struct {
	mu                              sync.Mutex
	total, assemble, elaborate, lnt time.Duration
	builds                          int
}

// buildPlatform builds a platform the way report.BuildPlatform does.
// Untraced, it calls report.BuildPlatform itself. Traced, it makes the
// same three calls one by one — assemble the program, elaborate the CPU
// (netlist Freeze and kernel Program included), lint — and records a span
// and a time for each.
func buildPlatform(tr *tracer, bt *buildTimes, parent int, run, design, bench string) (*core.Platform, error) {
	if tr == nil {
		return report.BuildPlatform(report.Design(design), bench)
	}
	root := tr.begin("report.build", parent, run)
	t0 := time.Now()
	target, err := isaOf(design)
	if err != nil {
		return nil, err
	}
	id := tr.begin("prog.assemble", root, run)
	img, err := prog.Build(bench, target)
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	id = tr.begin("cpu.elaborate", root, run)
	p, err := elaborate(design, img)
	tr.end(id)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	p.Bench = bench
	id = tr.begin("lint.run", root, run)
	p.Lint()
	tr.end(id)
	tr.end(root)
	t3 := time.Now()
	bt.mu.Lock()
	bt.builds++
	bt.total += t3.Sub(t0)
	bt.assemble += t1.Sub(t0)
	bt.elaborate += t2.Sub(t1)
	bt.lnt += t3.Sub(t2)
	bt.mu.Unlock()
	return p, nil
}

// buildLayers reports the platform-build figures of the traced passes.
func (r *runner) buildLayers(bs []*buildTimes) {
	r.setLayer("report.build_s", medianOver(bs, func(b *buildTimes) float64 { return seconds(b.total) }))
	r.setLayer("report.builds", medianOver(bs, func(b *buildTimes) float64 { return float64(b.builds) }))
	r.setLayer("prog.assemble_s", medianOver(bs, func(b *buildTimes) float64 { return seconds(b.assemble) }))
	r.setLayer("cpu.elaborate_s", medianOver(bs, func(b *buildTimes) float64 { return seconds(b.elaborate) }))
	r.setLayer("lint.run_s", medianOver(bs, func(b *buildTimes) float64 { return seconds(b.lnt) }))
}

func isaOf(design string) (prog.ISA, error) {
	switch report.Design(design) {
	case report.BM32:
		return prog.ISAMips, nil
	case report.OMSP430:
		return prog.ISAMsp430, nil
	case report.DR5:
		return prog.ISARV32, nil
	}
	return "", fmt.Errorf("unknown design %q", design)
}

func elaborate(design string, img *isa.Image) (*core.Platform, error) {
	switch report.Design(design) {
	case report.BM32:
		return bm32.Build(img)
	case report.OMSP430:
		return omsp430.Build(img)
	case report.DR5:
		return dr5.Build(img)
	}
	return nil, fmt.Errorf("unknown design %q", design)
}

// timedPolicy times every Observe of the CSM policy it wraps.
type timedPolicy struct {
	csm.Manager
	tr     *tracer
	parent int
	run    string

	mu      sync.Mutex
	observe []time.Duration
	skipped int
}

// errPolicyHooks refuses policies the analysis type-asserts for extra
// interfaces: wrapping them would hide those interfaces and measure a
// different program.
var errPolicyHooks = errors.New("csm timing: policy implements csm.Pruner or csm.HeatSink; refusing to wrap it")

func timePolicy(m csm.Manager, tr *tracer, parent int, run string) (*timedPolicy, error) {
	if _, ok := m.(csm.Pruner); ok {
		return nil, errPolicyHooks
	}
	if _, ok := m.(csm.HeatSink); ok {
		return nil, errPolicyHooks
	}
	return &timedPolicy{Manager: m, tr: tr, parent: parent, run: run}, nil
}

func (p *timedPolicy) Observe(st vvp.State) csm.Decision {
	start := time.Now()
	d := p.Manager.Observe(st)
	end := time.Now()
	p.tr.add("csm.observe", p.parent, p.run, start, end)
	p.mu.Lock()
	p.observe = append(p.observe, end.Sub(start))
	if d.Subsumed {
		p.skipped++
	}
	p.mu.Unlock()
	return d
}

// rpcTimer is the RoundTripper of a cluster worker's HTTP client. It
// times every RPC from request to the close of the response body, by
// endpoint, and reports the worker's first lease poll.
//
// Once stopping is set, a lease poll is answered "no work" (204) without
// reaching the closed coordinator, so a stopping worker sees its context
// end at once instead of backing off through its RPC retries.
type rpcTimer struct {
	base     http.RoundTripper
	polling  chan struct{} // closed at the first lease request
	once     sync.Once
	tr       atomic.Pointer[tracer]
	stopping atomic.Bool

	mu  sync.Mutex
	rpc map[string][]time.Duration
}

func newRPCTimer(base http.RoundTripper) *rpcTimer {
	return &rpcTimer{base: base, polling: make(chan struct{}), rpc: make(map[string][]time.Duration)}
}

// rpcEndpoint maps a coordinator URL path to its endpoint name:
// /cluster/lease -> lease, /cluster/runs/{id}/observe -> observe.
func rpcEndpoint(path string) (endpoint, run string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 4 && parts[1] == "runs" {
		return parts[3], parts[2]
	}
	return parts[len(parts)-1], ""
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	ep, run := rpcEndpoint(req.URL.Path)
	if ep == "lease" {
		t.once.Do(func() { close(t.polling) })
		if t.stopping.Load() {
			return noWork(req), nil
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.record(ep, run, start)
		return nil, err
	}
	if ep == "lease" && resp.StatusCode == http.StatusServiceUnavailable && t.stopping.Load() {
		_ = resp.Body.Close() // the 503 is replaced, its body unread
		return noWork(req), nil
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.record(ep, run, start) }}
	return resp, nil
}

func noWork(req *http.Request) *http.Response {
	return &http.Response{
		Status: "204 No Content", StatusCode: http.StatusNoContent,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody, Request: req,
	}
}

func (t *rpcTimer) record(ep, run string, start time.Time) {
	end := time.Now()
	t.tr.Load().add("cluster.rpc."+ep, -1, run, start, end)
	t.mu.Lock()
	t.rpc[ep] = append(t.rpc[ep], end.Sub(start))
	t.mu.Unlock()
}

// take returns and clears the recorded RPC times.
func (t *rpcTimer) take() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rpc
	t.rpc = make(map[string][]time.Duration)
	return out
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// promSum sums every sample of a metric family in a registry, optionally
// only those carrying label="value" (filter "label=value", or "").
func promSum(reg *obs.Registry, family, filter string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	want := ""
	if filter != "" {
		k, v, _ := strings.Cut(filter, "=")
		want = k + `="` + v + `"`
	}
	total := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		base, labels, _ := strings.Cut(name, "{")
		if base != family || (want != "" && !strings.Contains(labels, want)) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			total += v
		}
	}
	return total
}

// memSample is the runtime and host state at a pass boundary.
type memSample struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration // user+system time of the process
	steal   float64       // host steal time over all CPUs, seconds
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return memSample{
		alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs,
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		steal: stealSeconds(),
	}
}

// stealSeconds reads the time the host withheld the CPUs from this
// machine (the steal column of /proc/stat), or 0 where it is unknown.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// memDelta is the runtime cost of one pass and the host steal during it.
type memDelta struct {
	allocMB, gcCount, gcPauseS float64
	cpuS, stealS               float64
}

func (a memSample) to(b memSample) memDelta {
	return memDelta{
		allocMB:  float64(b.alloc-a.alloc) / (1 << 20),
		gcCount:  float64(b.gcs - a.gcs),
		gcPauseS: float64(b.pauseNs-a.pauseNs) / 1e9,
		cpuS:     seconds(b.cpu - a.cpu),
		stealS:   b.steal - a.steal,
	}
}
