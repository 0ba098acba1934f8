package symsim_test

import (
	"fmt"
	"testing"

	"symsim"
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
// observes a difference either. It is what lets the service result cache
// and the cluster leave the engine out of a result's identity.
//
// Policies are constructed fresh per engine run: a CSM is stateful, and
// sharing one across runs would let the first engine's merges subsume
// the second engine's paths.
func TestEngineEquivalenceEndToEnd(t *testing.T) {
	policies := []struct {
		name string
		mk   func(p *symsim.Platform) (symsim.Policy, error)
	}{
		{"merge-all", func(*symsim.Platform) (symsim.Policy, error) { return nil, nil }}, // Config default
		{"constrained", func(p *symsim.Platform) (symsim.Policy, error) {
			return symsim.ConstrainedPolicy(p.Spec.Bits(), []symsim.Constraint{
				{AnyPC: true, Bit: 0, Val: symsim.Lo},
			})
		}},
	}
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		for _, memx := range []symsim.MemXPolicy{symsim.MemXVerilog, symsim.MemXSound} {
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%v/memx=%v/%s", d, memx, pol.name), func(t *testing.T) {
					p, err := symsim.BuildPlatform(d, "tHold")
					if err != nil {
						t.Fatal(err)
					}
					run := func(e symsim.SimEngine) *symsim.Result {
						policy, err := pol.mk(p)
						if err != nil {
							t.Fatal(err)
						}
						res, err := symsim.Analyze(p, symsim.Config{Engine: e, MemX: memx, Policy: policy})
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					ri := run(symsim.EngineInterp)
					rk := run(symsim.EngineKernel)

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
