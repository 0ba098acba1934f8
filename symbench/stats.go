package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOver is the median of f over xs.
func medianOver[T any](xs []T, f func(T) float64) float64 {
	var v []float64
	for _, x := range xs {
		v = append(v, f(x))
	}
	return median(v)
}

// tailLadder lists the percentiles the tail rule may report, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tail is a latency percentile reported under the tail rule.
type tail struct {
	Pct     float64 // the percentile, e.g. 99
	Value   float64 // the latency at that percentile
	Samples int     // how many samples the percentile was taken over
	Beyond  int     // how many samples lie above it
}

// tailPercentile applies the reporting rule for latencies: the highest
// percentile of tailLadder that still has at least ten samples beyond it.
// With fewer than twenty samples no percentile qualifies and Pct is 0.
func tailPercentile(xs []float64) tail {
	t := tail{Samples: len(xs)}
	for _, p := range tailLadder {
		beyond := len(xs) - int(math.Ceil(p/100*float64(len(xs))))
		if beyond < 10 {
			break
		}
		t.Pct, t.Beyond, t.Value = p, beyond, quantile(xs, p/100)
	}
	return t
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
