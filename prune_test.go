package symsim_test

import (
	"fmt"
	"testing"

	"symsim"
	"symsim/internal/csm"
)

// withoutPruning hides the policy's pre-fork feasibility test
// (csm.Pruner), so the scheduler creates and simulates every forked child
// the policy would have proven infeasible; everything else the run sees
// is unchanged, including the merge-ordering heat source (csm.HeatSink)
// the pruning side of an A/B pair also receives. The policy must be a
// HeatSink, as the constrained policy is.
func withoutPruning(p symsim.Policy) symsim.Policy {
	return unpruned{Manager: p, heat: p.(csm.HeatSink)}
}

type unpruned struct {
	csm.Manager
	heat csm.HeatSink
}

func (u unpruned) SetHeat(heat func(pc uint64) int) { u.heat.SetHeat(heat) }

// tHoldPruneFacts is the worked example of constraint-aware forking on
// openMSP430/tHold (the paper's counter-trend path-count cell, §5.0.3).
// The loop body compares each X sample against the threshold and has two
// conditional jumps to the same skip label: JEQ at PC 0x1e (sample ==
// limit) and JNC at 0x20 (sample < limit). The designer fact "no sample
// ever equals the threshold exactly" pins sr_z=0 at the JEQ, which proves
// the JEQ-taken child infeasible before it forks. The pruned path is
// control-flow redundant — the JNC-taken path drives the same skip code —
// so the dichotomy cannot move, only the path count.
func tHoldPruneFacts(t testing.TB, p *symsim.Platform) []symsim.Constraint {
	t.Helper()
	srz := p.Spec.BitOfNet("sr_z")
	if srz < 0 {
		t.Fatal("no state bit for sr_z")
	}
	return []symsim.Constraint{{PC: 0x1e, Bit: srz, Val: symsim.Lo}}
}

// TestConstraintPruningReducesPathsSoundly is the acceptance gate of the
// pre-fork pruner: with the tHold fact, each MemX cell must create
// strictly fewer paths with pruning on — and produce the byte-identical
// tie-off list, because the pruned children are redundant under the
// fact. withoutPruning is the only difference between the two runs, so
// any divergence is the pruner's. (The interpreter's side of pruning is
// held to the kernel's by the constrained cells of core's
// TestEngineEquivalenceEndToEnd; the subtests keep their /kernel suffix
// from when this test also ran the interpreter.)
func TestConstraintPruningReducesPathsSoundly(t *testing.T) {
	p, err := symsim.BuildPlatform(symsim.OMSP430, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	cons := tHoldPruneFacts(t, p)
	for _, memx := range []symsim.MemXPolicy{symsim.MemXVerilog, symsim.MemXSound} {
		t.Run(fmt.Sprintf("memx=%v/kernel", memx), func(t *testing.T) {
			run := func(disable bool) *symsim.Result {
				pol, err := symsim.ConstrainedPolicy(p.Spec.Bits(), cons)
				if err != nil {
					t.Fatal(err)
				}
				if disable {
					pol = withoutPruning(pol)
				}
				res, err := symsim.Analyze(p, symsim.Config{Policy: pol, MemX: memx})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete {
					t.Fatalf("run degraded: %+v", res.Degradation)
				}
				return res
			}
			off, on := run(true), run(false)
			if off.PathsPruned != 0 {
				t.Errorf("unpruned run pruned %d paths", off.PathsPruned)
			}
			if on.PathsPruned == 0 {
				t.Error("pruning run pruned nothing")
			}
			if on.PathsCreated >= off.PathsCreated {
				t.Errorf("paths created: pruned %d, unpruned %d — want strict drop",
					on.PathsCreated, off.PathsCreated)
			}
			toOff, toOn := off.TieOffs(), on.TieOffs()
			if len(toOff) != len(toOn) {
				t.Fatalf("tie-off counts diverged: unpruned %d, pruned %d", len(toOff), len(toOn))
			}
			for i := range toOff {
				if toOff[i] != toOn[i] {
					t.Fatalf("tie-off %d diverged: unpruned %+v, pruned %+v", i, toOff[i], toOn[i])
				}
			}
		})
	}
}
