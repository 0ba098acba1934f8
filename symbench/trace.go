package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Times are offsets from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Run    string `json:"run"` // the pass, job or cluster run the span belongs to
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced passes pay one nil test per
// layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, run string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: run, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, parent int, run string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Run: run,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time in seconds of
// the spans descending from root (root included): a span's duration minus
// the part of its interval that its children cover.
func selfTimes(spans []span, root int) map[string]float64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string]float64)
	var walk func(id int)
	walk = func(id int) {
		s := spans[id]
		var ivs [][2]int64
		for _, c := range children[id] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
			walk(c)
		}
		out[s.Name] += float64(s.End-s.Start-covered(ivs)) / 1e9
	}
	walk(root)
	return out
}

// covered returns the length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the header line and every span as JSON lines.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		_ = f.Close() // the encode error takes precedence
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error takes precedence
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error takes precedence
		return err
	}
	return f.Close()
}
