// The compiled simulation kernel: the production engine, executing the
// structure-of-arrays netlist.Program instead of interpreting Gate records.
//
// Three things distinguish it from the reference interpreter, none of them
// semantic:
//
//  1. Gate descriptors are packed (inline pin array, no per-gate slice
//     header) and renumbered level-major, so each topological level is one
//     contiguous descriptor run; fanout walks run over CSR tables — one
//     contiguous scan per net instead of a [][]GateID double indirection.
//  2. Combinational evaluation is a single branch-free load from
//     netlist.EvalLUT, generated from EvalGate itself; only flip-flops
//     retain control flow (stepDFF, shared verbatim with the interpreter).
//  3. The dirty set is a flat bitmap over the level-major numbering
//     instead of per-level queues. A level round claims the level's bit
//     range in word-sized chunks and sweeps the set bits in ascending ID
//     order — a radix sort in all but name, replacing the interpreter's
//     scratch copy, comparison sort and per-gate queue bookkeeping with a
//     few word operations per 64 gates.
//
// The renumbering is a stable counting sort by level, so ascending kernel
// ID within a level is ascending netlist ID: every round evaluates the
// same gates in the same order as the interpreter's sorted rounds, and a
// bit set while its round is running lands in the already-claimed word's
// live slot — deferred to the next round, exactly like the interpreter's
// emptied bucket. Traces, toggle profiles and halt cycles therefore match
// the interpreter bit for bit — enforced by the differential suite in
// kernel_test.go.
package vvp

import (
	"math/bits"

	"symsim/internal/netlist"
)

// kernelLevel runs one round of level lvl on the compiled kernel: claim
// the level's slice of the dirty bitmap, then evaluate the claimed gates
// in ascending kernel ID order via trailing-zero iteration.
//
//symsim:hotpath
func (s *Simulator) kernelLevel(lvl int32) error {
	lo, hi := s.prog.LevelRange(lvl)
	if lo != hi {
		w0 := lo >> 6
		w1 := (hi - 1) >> 6
		if w0 == w1 {
			// Levels spanning one bitmap word (the common case on real
			// designs) claim and sweep without the scratch round-trip.
			w := s.dirtyW[w0] &^ (uint64(1)<<(lo&63) - 1)
			if hi&63 != 0 {
				w &= uint64(1)<<(hi&63) - 1
			}
			if w != 0 {
				s.dirtyW[w0] &^= w
				n := bits.OnesCount64(w)
				s.sweeps++
				s.dirtyN -= n
				base := netlist.GateID(w0 << 6)
				for w != 0 {
					s.evalGateK(base + netlist.GateID(bits.TrailingZeros64(w)))
					w &= w - 1
				}
				if err := s.countDeltas(n); err != nil {
					return err
				}
			}
			s.drainLevelMems(lvl)
			return nil
		}
		sw := s.scratchW[:0]
		n := 0
		for wi := w0; wi <= w1; wi++ {
			w := s.dirtyW[wi]
			if wi == w0 {
				w &^= uint64(1)<<(lo&63) - 1
			}
			if wi == w1 && hi&63 != 0 {
				w &= uint64(1)<<(hi&63) - 1
			}
			// Claim this round's set; gates dirtied during the round set
			// their bit back in dirtyW and defer to the next round.
			s.dirtyW[wi] &^= w
			n += bits.OnesCount64(w)
			//symsim:allow SA001 scratchW is pre-sized at Freeze; append reuses its capacity
			sw = append(sw, w)
		}
		s.scratchW = sw
		if n > 0 {
			s.sweeps++
			s.dirtyN -= n
			for i, w := range sw {
				base := netlist.GateID((w0 + uint32(i)) << 6)
				for w != 0 {
					s.evalGateK(base + netlist.GateID(bits.TrailingZeros64(w)))
					w &= w - 1
				}
			}
			if err := s.countDeltas(n); err != nil {
				return err
			}
		}
	}
	s.drainLevelMems(lvl)
	return nil
}

// Sweeps returns the number of bitmap level rounds the kernel has
// executed; always zero on the interpreter. Exposed for tests and tuning.
func (s *Simulator) Sweeps() uint64 { return s.sweeps }

// evalGateK processes one gate through its packed descriptor: flip-flops
// share stepDFF with the interpreter, everything else is a single EvalLUT
// load. Pins beyond the kind's input count are padded with net 0 and the
// LUT ignores their operands, so the loads are unconditional. g is a
// kernel gate ID; every per-gate array the kernel touches (descriptors,
// levels, lastClk) is indexed by it.
//
//symsim:hotpath
func (s *Simulator) evalGateK(g netlist.GateID) {
	d := &s.prog.Gates[g]
	if d.Kind == netlist.KindDFF {
		s.stepDFF(g, d.Out,
			s.val[d.In[netlist.DFFPinD]],
			s.val[d.In[netlist.DFFPinClk]],
			s.val[d.In[netlist.DFFPinEn]],
			s.val[d.In[netlist.DFFPinRstn]],
			d.Init)
		return
	}
	v := netlist.EvalLUT[uint32(d.Kind)<<6|
		uint32(s.val[d.In[0]])<<4|
		uint32(s.val[d.In[1]])<<2|
		uint32(s.val[d.In[2]])]
	// No-change fast path. Sound with forces too: a forced net already
	// holds its forced value, so commit would be a no-op either way.
	if v == s.val[d.Out] {
		return
	}
	s.commit(d.Out, v, RegionActive)
}
