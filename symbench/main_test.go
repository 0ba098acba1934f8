package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"symsim/internal/csm"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

func TestJobStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := jobStream(7, serviceJobs), jobStream(7, serviceJobs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job streams")
	}
	if reflect.DeepEqual(a, jobStream(8, serviceJobs)) {
		t.Fatal("seeds 7 and 8 gave the same job stream")
	}
	counts := map[Key]int{}
	for _, k := range a {
		counts[k]++
	}
	if len(counts) != len(allKeys()) {
		t.Fatalf("stream covers %d keys, want all %d", len(counts), len(allKeys()))
	}
	// The multiset is fixed by the law: only key placement and order vary.
	freq := func(s []Key) []int {
		m := map[Key]int{}
		for _, k := range s {
			m[k]++
		}
		var f []int
		for _, n := range m {
			f = append(f, n)
		}
		sort.Ints(f)
		return f
	}
	if !reflect.DeepEqual(freq(a), freq(jobStream(8, serviceJobs))) {
		t.Fatal("the key-frequency profile depends on the seed")
	}
	if top := freq(a)[len(freq(a))-1]; top < 35 || top > 50 {
		t.Fatalf("most popular key has %d jobs, want about %d/H(72) = 41", top, serviceJobs)
	}
	if len(a) < 100 {
		t.Fatalf("stream has %d jobs; a p90 needs at least 100", len(a))
	}
}

func TestCellOrderIsAFunctionOfTheSeed(t *testing.T) {
	a := cellOrder(passSeed(3, 1))
	if !reflect.DeepEqual(a, cellOrder(passSeed(3, 1))) {
		t.Fatal("the same seed gave two different run orders")
	}
	if reflect.DeepEqual(a, cellOrder(passSeed(3, 2))) {
		t.Fatal("two passes of a run got the same order")
	}
	if len(a) != 18 {
		t.Fatalf("%d cells, want 18", len(a))
	}
}

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{19, 0, 0},     // no percentile has ten samples beyond it
		{20, 50, 10},   // the median does
		{99, 50, 49},   // p90 would leave only 9 beyond
		{100, 90, 10},  // p90 leaves exactly 10
		{999, 90, 99},  // p99 would leave 9
		{1000, 99, 10}, // p99 leaves exactly 10
	} {
		got := tailPercentile(ramp(tc.n))
		if got.Pct != tc.pct || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got p%v with %d beyond of %d, want p%v with %d beyond", tc.n, got.Pct, got.Beyond, got.Samples, tc.pct, tc.beyond)
		}
	}
	if got := tailPercentile(ramp(100)); got.Value < 90 || got.Value > 91 {
		t.Errorf("p90 of 1..100 = %v", got.Value)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cell", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "core.analyze", Start: 20, End: 60},
		{ID: 3, Parent: 2, Name: "csm.observe", Start: 30, End: 35},
		{ID: 4, Parent: 1, Name: "bespoke.generate", Start: 50, End: 80}, // overlaps its sibling
		{ID: 5, Parent: -1, Name: "report.build", Start: 0, End: 1000},   // another tree
	}
	got := selfTimes(spans, 0)
	want := map[string]float64{"pass": 20e-9, "cell": 20e-9, "core.analyze": 35e-9, "csm.observe": 5e-9, "bespoke.generate": 30e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
	if _, ok := got["report.build"]; ok {
		t.Error("a span outside the root's tree was counted")
	}
}

func TestTimePolicyRefusesPolicyHooks(t *testing.T) {
	cons, err := csm.NewConstrained(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := timePolicy(cons, nil, -1, ""); err == nil {
		t.Fatal("wrapped a policy that implements csm.Pruner and csm.HeatSink")
	}
	tp, err := timePolicy(csm.NewMergeAll(), nil, -1, "")
	if err != nil {
		t.Fatal(err)
	}
	var m csm.Manager = tp
	if _, ok := m.(csm.Pruner); ok {
		t.Fatal("the decorator itself claims csm.Pruner")
	}
	st := vvp.State{PC: 1}
	if d := tp.Observe(st); d.Subsumed {
		t.Fatal("first observe subsumed")
	}
	if len(tp.observe) != 1 {
		t.Fatalf("%d observes timed, want 1", len(tp.observe))
	}
}

// TestGoldenCheckCatchesWrongOutput runs one real cell through the
// matrix path and checks it against the golden table, then against
// golden rows that are wrong in each field in turn, and through the
// runner that a wrong output fails the run.
func TestGoldenCheckCatchesWrongOutput(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Design: "dr5", Bench: "mult", Policy: "merge-all", MemX: "verilog"}
	res, bsp, err := matrixCell(newTracer(), &matrixLayers{}, obs.NewRegistry(), -1, k)
	if err != nil {
		t.Fatal(err)
	}
	o := fromResult(res)
	o.BespokeGates = bsp.BespokeGates
	g := golden[k.String()]
	if err := check(g, o); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Golden){
		"paths":    func(g *Golden) { g.PathsCreated++ },
		"skipped":  func(g *Golden) { g.PathsSkipped++ },
		"cycles":   func(g *Golden) { g.Cycles++ },
		"gates":    func(g *Golden) { g.Exercisable-- },
		"bespoke":  func(g *Golden) { g.BespokeGates++ },
		"tie-offs": func(g *Golden) { g.TieOffDigest = strings.Repeat("0", 64) },
	} {
		bad := g
		mutate(&bad)
		if err := check(bad, o); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
	o.TieOffs[0] += "x"
	if err := check(g, o); err == nil {
		t.Error("a changed tie-off value was accepted")
	}

	r := &runner{e2e: map[string]metric{}, layer: map[string]metric{}}
	r.attempted = 2
	r.fail(check(g, o))
	res2, code := r.outcome()
	if res2.Correct || res2.Failed != 1 || code != 1 {
		t.Fatalf("a wrong output gave correct=%v failed=%d exit=%d", res2.Correct, res2.Failed, code)
	}
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json and the
// metric lists the program reports in step.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(kind string, got []struct{ Name, Unit string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	cmp("end_to_end", b.EndToEnd, endToEnd)
	cmp("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
