package core_test

import (
	"fmt"
	"testing"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/logic"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// TestEngineEquivalenceEndToEnd is the whole-stack differential check,
// swept across all three evaluation cores (Table 2), both X-memory
// policies and two CSM policies (the merge-all default and constrained,
// whose fact trimming, fork pruning and heat-ordered merging all sit on
// the observe path the engines share). For each cell the interpreter and
// the kernel must produce the identical everything — exercisable set,
// tie-offs, path counts, simulated cycles, conservative-state count. The
// unit-level suite in internal/vvp certifies the engines commit-for-commit;
// this certifies nothing above them (forking, CSM, toggle absorption)
// observes a difference either. It is what lets every production path run
// the kernel alone: the interpreter is reachable only through the
// test-only WithInterpreter seam.
//
// Policies are constructed fresh per engine run: a CSM is stateful, and
// sharing one across runs would let the first engine's merges subsume
// the second engine's paths.
func TestEngineEquivalenceEndToEnd(t *testing.T) {
	policies := []struct {
		name string
		mk   func(p *core.Platform) (csm.Manager, error)
	}{
		{"merge-all", func(*core.Platform) (csm.Manager, error) { return nil, nil }}, // Config default
		{"constrained", func(p *core.Platform) (csm.Manager, error) {
			return csm.NewConstrained(p.Spec.Bits(), []csm.Constraint{
				{AnyPC: true, Bit: 0, Val: logic.Lo},
			})
		}},
	}
	for _, d := range []report.Design{report.BM32, report.OMSP430, report.DR5} {
		for _, memx := range []vvp.MemXPolicy{vvp.MemXVerilog, vvp.MemXSound} {
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%v/memx=%v/%s", d, memx, pol.name), func(t *testing.T) {
					p, err := report.BuildPlatform(d, "tHold")
					if err != nil {
						t.Fatal(err)
					}
					run := func(engine func(core.Config) core.Config) *core.Result {
						policy, err := pol.mk(p)
						if err != nil {
							t.Fatal(err)
						}
						res, err := core.Analyze(p, engine(core.Config{MemX: memx, Policy: policy}))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					ri := run(core.WithInterpreter)
					rk := run(func(cfg core.Config) core.Config { return cfg })

					if ri.PathsCreated != rk.PathsCreated || ri.PathsSkipped != rk.PathsSkipped {
						t.Errorf("paths diverged: interp %d/%d kernel %d/%d",
							ri.PathsCreated, ri.PathsSkipped, rk.PathsCreated, rk.PathsSkipped)
					}
					if ri.PathsPruned != rk.PathsPruned {
						t.Errorf("pruned diverged: interp %d kernel %d", ri.PathsPruned, rk.PathsPruned)
					}
					if ri.SimulatedCycles != rk.SimulatedCycles {
						t.Errorf("cycles diverged: %d vs %d", ri.SimulatedCycles, rk.SimulatedCycles)
					}
					if ri.CSMStates != rk.CSMStates {
						t.Errorf("CSM states diverged: %d vs %d", ri.CSMStates, rk.CSMStates)
					}
					if ri.ExercisableCount != rk.ExercisableCount {
						t.Errorf("exercisable count diverged: interp %d vs kernel %d",
							ri.ExercisableCount, rk.ExercisableCount)
					}
					for gi := range rk.ExercisableGates {
						if ri.ExercisableGates[gi] != rk.ExercisableGates[gi] {
							t.Fatalf("gate %d exercisability diverged", gi)
						}
					}
					ti, tk := ri.TieOffs(), rk.TieOffs()
					if len(ti) != len(tk) {
						t.Fatalf("tie-off counts diverged: interp %d vs kernel %d", len(ti), len(tk))
					}
					for i := range ti {
						if ti[i] != tk[i] {
							t.Fatalf("tie-off %d diverged: interp %+v vs kernel %+v", i, ti[i], tk[i])
						}
					}
				})
			}
		}
	}
}
