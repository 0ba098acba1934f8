// Command symbench is the repository benchmark. It drives symsim from one
// process through its public entry points and prints, as the last line of
// its standard output, one JSON object with the run's output check and
// its metrics.
//
//	symbench --workload matrix|service-mix|fleet --seed N --seconds S --trace 0|1
//	symbench --write-golden golden.json
//
// Workloads:
//
//   - matrix: the paper's evaluation flow on all 18 Table-4 cells —
//     report.BuildPlatform, core.Analyze, bespoke.Generate — one
//     sequential caller with the paper's defaults. It never touches the
//     service or the cluster.
//   - service-mix: symsimd in process behind service.Handler on loopback
//     HTTP, driven by a closed loop of one client per core over a seeded
//     Zipf stream of 72 keys; the only workload that exercises submit,
//     queue, store, cache and SSE.
//   - fleet: an in-process cluster.Coordinator on loopback HTTP with one
//     single-slot worker per core; the 18 cells are submitted as runs in
//     seeded order, one at a time, each awaited before the next. The only
//     workload where a CSM observe is an RPC and work moves by lease. Each
//     pass starts a fresh fleet whose workers have warm platform caches.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it alternates untraced and traced passes, records spans
// around every layer call in the traced ones, writes the spans once at the
// end (under .bench_build/spans), and reports the per-layer metrics plus
// the tracing overhead. The program's own tracer stays off throughout.
// Every run checks every output against golden.json; a mismatch counts as
// a failed operation and makes the command exit 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostStamp identifies where and on what a row was measured.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func stamp(workload string, seed int64, secs int, trace bool) hostStamp {
	return hostStamp{
		Workload:   workload,
		Seed:       seed,
		Seconds:    secs,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the revision run.sh found the source at, "unknown" outside a
// git checkout.
func commit() string {
	if c := os.Getenv("SYMBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runner carries one run's settings and collects its outcome.
type runner struct {
	seed    int64
	budget  time.Duration
	trace   bool
	tr      *tracer // non-nil only in trace mode
	golden  map[string]Golden
	workers int // clients, service workers or fleet workers: one per core
	ctx     context.Context

	attempted, failed int
	errs              []string

	e2e   map[string]metric
	layer map[string]metric
}

// fail records a failed operation.
func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

// schedule decides how many passes a run makes and which are traced:
// untraced and traced passes alternate in trace mode, passes continue
// until the run's time is spent, and each kind gets at least its minimum.
type schedule struct {
	start              time.Time
	budget             time.Duration
	trace              bool
	minPlain, minTrace int
	plain, traced      int
}

func (s *schedule) next() (ok, traced bool) {
	enough := s.plain >= s.minPlain && (!s.trace || s.traced >= s.minTrace)
	if enough && time.Since(s.start) >= s.budget {
		return false, false
	}
	traced = s.trace && s.traced < s.plain
	if traced {
		s.traced++
	} else {
		s.plain++
	}
	return true, traced
}

// schedule starts a run's pass schedule. An untraced run makes at least
// minPlain passes; a traced run at least two of each kind.
func (r *runner) schedule(minPlain int) *schedule {
	s := &schedule{start: time.Now(), budget: r.budget, trace: r.trace, minPlain: minPlain}
	if r.trace {
		s.minPlain, s.minTrace = 2, 2
	}
	return s
}

// logPass reports a finished pass on standard error.
func (r *runner) logPass(i int, traced bool, p pass) {
	fmt.Fprintf(os.Stderr, "symbench: pass %d traced=%v wall=%.3fs cpu=%.3fs steal=%.3fs items=%d\n",
		i, traced, seconds(p.wall), p.mem.cpuS, p.mem.stealS, p.items)
}

// tracerFor returns the tracer a pass records into: nil when untraced.
func (r *runner) tracerFor(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

var workloads = map[string]func(*runner) error{
	"matrix":      runMatrix,
	"service-mix": runServiceMix,
	"fleet":       runFleet,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("symbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "matrix | service-mix | fleet")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	goldenOut := fs.String("write-golden", "", "run every key once and write the golden table to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *goldenOut != "" {
		if err := writeGolden(*goldenOut); err != nil {
			fmt.Fprintln(os.Stderr, "symbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "symbench: need --workload matrix|service-mix|fleet, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbench:", err)
		return 1
	}
	// The hard stop keeps a wedged run from outliving the caller's limit.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*secs)*time.Second+120*time.Second)
	defer cancel()
	r := &runner{
		seed:    *seed,
		budget:  time.Duration(*secs) * time.Second,
		trace:   *trace == 1,
		golden:  golden,
		workers: runtime.NumCPU(),
		ctx:     ctx,
		e2e:     make(map[string]metric),
		layer:   make(map[string]metric),
	}
	if r.trace {
		r.tr = newTracer()
	}
	host := stamp(*workload, *seed, *secs, r.trace)
	if err := wl(r); err != nil {
		fmt.Fprintf(os.Stderr, "symbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "symbench: check failed:", e)
	}
	if r.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
		if err := writeSpans(path, host, r.tr.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "symbench: writing spans:", err)
			return 1
		}
	}
	res, code := r.outcome()
	printRow(host, res)
	return code
}

// outcome is the run's result line and exit code: any failed operation,
// a wrong output included, makes the run incorrect and the exit code 1.
func (r *runner) outcome() (result, int) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if r.trace {
		res.Metrics = r.layer
	}
	if !res.Correct {
		return res, 1
	}
	return res, 0
}

// printRow prints the host-stamped row, one readable line per metric, and
// the result object as the last line.
func printRow(host hostStamp, res result) {
	h, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", h)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}
