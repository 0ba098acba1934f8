package main

import (
	"math"
	"math/rand"

	"symsim/internal/prog"
	"symsim/internal/report"
)

// Key names one analysis: a Table-4 cell plus the two result-affecting
// knobs the service keys its cache on.
type Key struct {
	Design string `json:"design"`
	Bench  string `json:"bench"`
	Policy string `json:"policy"` // merge-all | clustered (k=4)
	MemX   string `json:"memx"`   // verilog | sound
}

func (k Key) String() string { return k.Design + "/" + k.Bench + "/" + k.Policy + "/" + k.MemX }

// cells returns the 18 Table-4 cells (3 CPUs x 6 Table-1 benchmarks) with
// the paper's defaults, design-major in paper order.
func cells() []Key {
	var ks []Key
	for _, d := range report.Designs {
		for _, b := range prog.Benchmarks {
			ks = append(ks, Key{Design: string(d), Bench: b.Name, Policy: "merge-all", MemX: "verilog"})
		}
	}
	return ks
}

// allKeys returns the 72 service-mix keys: every cell under
// {merge-all, clustered k=4} x {verilog, sound}.
func allKeys() []Key {
	var ks []Key
	for _, pol := range []string{"merge-all", "clustered"} {
		for _, mx := range []string{"verilog", "sound"} {
			for _, c := range cells() {
				c.Policy, c.MemX = pol, mx
				ks = append(ks, c)
			}
		}
	}
	return ks
}

// passSeed derives the seed of one pass of a run, so every pass of a run
// draws a different but reproducible input.
func passSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// cellOrder returns the 18 cells in the order the seed selects.
func cellOrder(seed int64) []Key {
	ks := cells()
	rand.New(rand.NewSource(seed)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// zipfS is the Zipf exponent of the service-mix popularity law.
const zipfS = 1.0

// jobStream returns the service-mix job stream for one pass: about n
// submissions whose key frequencies follow a Zipf law over the 72 keys.
//
// The law is applied by quantized counts rather than by independent
// draws: popularity rank r gets round(n*w_r) jobs, and at least one, so
// every key is submitted and the set of analyses the pass must run (the
// cache misses) is the same for every seed. The seed decides which key of
// a design holds each rank and the order of the whole stream. Ranks cycle
// through the three designs, because a cache hit still elaborates the
// design and its cost is set by the design; that keeps the hit cost, and
// with it the latency median, a property of the law rather than of one
// seed.
func jobStream(seed int64, n int) []Key {
	rng := rand.New(rand.NewSource(seed))
	byDesign := make(map[string][]Key)
	for _, k := range allKeys() {
		byDesign[k.Design] = append(byDesign[k.Design], k)
	}
	for _, d := range report.Designs {
		ks := byDesign[string(d)]
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	}
	nkeys := len(allKeys())
	h := 0.0
	for r := 1; r <= nkeys; r++ {
		h += 1 / math.Pow(float64(r), zipfS)
	}
	var jobs []Key
	for r := 0; r < nkeys; r++ {
		d := string(report.Designs[r%len(report.Designs)])
		k := byDesign[d][r/len(report.Designs)]
		c := int(math.Round(float64(n) / math.Pow(float64(r+1), zipfS) / h))
		if c < 1 {
			c = 1
		}
		for i := 0; i < c; i++ {
			jobs = append(jobs, k)
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}
