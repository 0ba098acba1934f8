package service

import (
	"errors"
	"strings"
	"testing"

	"symsim/internal/netlist"
)

func TestNormalizeFillsDefaults(t *testing.T) {
	def := JobSpec{Policy: "clustered", K: 8, MemX: "sound", Workers: 3, DeadlineMS: 1000}
	got, err := normalize(JobSpec{Design: "dr5", Bench: "tea8"}, def)
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 8,
		MemX: "sound", Workers: 3, DeadlineMS: 1000}
	if got != want {
		t.Errorf("normalize = %+v, want %+v", got, want)
	}
}

func TestNormalizeBuiltinFallbacks(t *testing.T) {
	got, err := normalize(JobSpec{Design: "dr5", Bench: "mult"}, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != "merge-all" || got.MemX != "verilog" || got.Workers != 1 {
		t.Errorf("fallbacks wrong: %+v", got)
	}
}

// Parameters irrelevant to the selected policy must be normalized away, so
// equivalent submissions share one canonical spec (and one cache key).
func TestNormalizeCanonicalizesPolicyParams(t *testing.T) {
	a, err := normalize(JobSpec{Design: "d", Bench: "b", Policy: "merge-all", K: 9, MaxStates: 77}, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize(JobSpec{Design: "d", Bench: "b", Policy: "merge-all"}, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equivalent merge-all specs differ: %+v vs %+v", a, b)
	}
	var hash netlist.Digest
	if cacheKey(hash, a) != cacheKey(hash, b) {
		t.Error("equivalent specs got different cache keys")
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"missing design", JobSpec{Bench: "b"}, "missing design"},
		{"missing bench", JobSpec{Design: "d"}, "missing bench"},
		{"unknown policy", JobSpec{Design: "d", Bench: "b", Policy: "bogus"}, "policy"},
		{"constrained unsupported", JobSpec{Design: "d", Bench: "b", Policy: "constrained"}, "policy"},
		{"clustered needs k", JobSpec{Design: "d", Bench: "b", Policy: "clustered"}, "k > 0"},
		{"exact needs budget", JobSpec{Design: "d", Bench: "b", Policy: "exact"}, "maxStates > 0"},
		{"bad memx", JobSpec{Design: "d", Bench: "b", MemX: "maybe"}, "memx"},
		{"negative budget", JobSpec{Design: "d", Bench: "b", MaxForks: -1}, "negative"},
		{"priority range", JobSpec{Design: "d", Bench: "b", Priority: 1 << 21}, "priority"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := normalize(tc.spec, JobSpec{})
			var bad *BadSpecError
			if !errors.As(err, &bad) {
				t.Fatalf("want BadSpecError, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The cache key must cover exactly the result-affecting inputs: design
// content, design/bench selection, policy (with its live parameters) and
// memory-X semantics — and nothing else.
func TestCacheKeySensitivity(t *testing.T) {
	base := JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4, MemX: "verilog", Workers: 1}
	var h1, h2 netlist.Digest
	h2[0] = 1
	key := cacheKey(h1, base)

	diff := func(name string, spec JobSpec, hash netlist.Digest) {
		if got := cacheKey(hash, spec); got == key {
			t.Errorf("%s: cache key did not change", name)
		}
	}
	same := func(name string, spec JobSpec) {
		if got := cacheKey(h1, spec); got != key {
			t.Errorf("%s: cache key changed but result cannot", name)
		}
	}

	diff("design hash", base, h2)
	diff("bench", JobSpec{Design: "dr5", Bench: "mult", Policy: "clustered", K: 4, MemX: "verilog"}, h1)
	diff("policy", JobSpec{Design: "dr5", Bench: "tea8", Policy: "merge-all", MemX: "verilog"}, h1)
	diff("policy param", JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 8, MemX: "verilog"}, h1)
	diff("memx", JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4, MemX: "sound"}, h1)

	wrk := base
	wrk.Workers = 8
	same("workers", wrk)
	bud := base
	bud.DeadlineMS = 5000
	bud.MaxForks = 100
	same("budgets", bud)
	pri := base
	pri.Priority = 10
	same("priority", pri)
}
