package vvp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// The kernel differential suite: the compiled kernel must be behaviourally
// indistinguishable from the reference interpreter — identical commit
// traces, toggle profiles, activity counters, memory contents, snapshots
// and halt behaviour — on random synchronous circuits with memories, under
// forces and across save/restore. The interpreter is itself validated
// against a naive oracle (oracle_test.go), so agreement here certifies the
// kernel end to end.

// randMemCircuit builds a random clocked design with k inputs, f DFFs, g
// combinational gates and (optionally) a small RAM and ROM wired off the
// net pool, so the differential runs exercise the memory paths too.
func randMemCircuit(r *rand.Rand, k, f, g int, withMem bool) (*netlist.Netlist, []netlist.NetID) {
	n := netlist.New("randmem")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	one := n.AddNet("one")
	n.AddGate(netlist.KindConst1, one)
	var pool, ins []netlist.NetID
	for i := 0; i < k; i++ {
		id := n.AddInput(fmt.Sprintf("in%d", i))
		ins = append(ins, id)
		pool = append(pool, id)
	}
	var qs []netlist.NetID
	for i := 0; i < f; i++ {
		q := n.AddNet(fmt.Sprintf("q%d", i))
		qs = append(qs, q)
		pool = append(pool, q)
	}
	kinds := []netlist.GateKind{netlist.KindAnd, netlist.KindOr, netlist.KindXor,
		netlist.KindNand, netlist.KindNor, netlist.KindXnor, netlist.KindNot,
		netlist.KindBuf, netlist.KindMux2}
	pick := func() netlist.NetID { return pool[r.Intn(len(pool))] }
	for i := 0; i < g; i++ {
		kind := kinds[r.Intn(len(kinds))]
		out := n.AddNet(fmt.Sprintf("c%d", i))
		in := make([]netlist.NetID, kind.NumInputs())
		for j := range in {
			in[j] = pick()
		}
		n.AddGate(kind, out, in...)
		pool = append(pool, out)
	}
	if withMem {
		rd := []netlist.NetID{n.AddNet("rd0"), n.AddNet("rd1")}
		n.AddMem(&netlist.Mem{
			Name: "ram", AddrBits: 2, DataBits: 2, Words: 4,
			RAddr: []netlist.NetID{pick(), pick()}, RData: rd,
			Clk: clk, WEn: pick(),
			WAddr: []netlist.NetID{pick(), pick()},
			WData: []netlist.NetID{pick(), pick()},
		})
		pool = append(pool, rd...)
		rrd := []netlist.NetID{n.AddNet("rrd0")}
		rom := &netlist.Mem{
			Name: "rom", AddrBits: 1, DataBits: 1, Words: 2,
			RAddr: []netlist.NetID{pick()}, RData: rrd,
			WEn:  netlist.NoNet,
			Init: []logic.Vec{logic.MustVec("1"), logic.MustVec("0")},
		}
		n.AddMem(rom)
		pool = append(pool, rrd...)
		// One more layer of logic consuming the read ports.
		out := n.AddNet("cmem")
		n.AddGate(netlist.KindXor, out, rd[0], rrd[0])
		pool = append(pool, out)
	}
	for _, q := range qs {
		n.AddDFF(q, pick(), clk, pick(), rstn, logic.Bool(r.Intn(2) == 1))
	}
	n.MarkOutput(pool[len(pool)-1])
	if err := n.Freeze(); err != nil {
		panic(err)
	}
	return n, ins
}

// randStimulus drives reset then nCycles of random (sometimes X) input
// values changing at negedges.
func randStimulus(r *rand.Rand, n *netlist.Netlist, ins []netlist.NetID, nCycles int) *Stimulus {
	st := NewStimulus(n.Inputs[0], hp)
	rstn := n.Inputs[1]
	st.At(1, rstn, logic.Lo)
	st.At(2*hp+1, rstn, logic.Hi)
	for c := 0; c < nCycles; c++ {
		for _, in := range ins {
			switch r.Intn(4) {
			case 0:
				st.At(uint64(2*hp*(c+1)), in, logic.Lo)
			case 1:
				st.At(uint64(2*hp*(c+1)), in, logic.Hi)
			case 2:
				st.At(uint64(2*hp*(c+1)), in, logic.X)
			}
		}
	}
	st.Finalize()
	return st
}

// enginePair builds an interpreter and a kernel simulator of the same
// design with identical options (traces and activity counting on) and
// binds both to the same stimulus.
func enginePair(n *netlist.Netlist, st *Stimulus, memx MemXPolicy) (si, sk *Simulator, ti, tk *Trace) {
	ti, tk = &Trace{}, &Trace{}
	si = NewInterpreter(n, Options{MemX: memx, Trace: ti, CountActivity: true})
	sk = New(n, Options{MemX: memx, Trace: tk, CountActivity: true})
	si.BindStimulus(st)
	sk.BindStimulus(st)
	return si, sk, ti, tk
}

// checkAgreement compares every piece of observable simulator state.
func checkAgreement(t *testing.T, ctx string, si, sk *Simulator) {
	t.Helper()
	if si.Now() != sk.Now() || si.Cycles() != sk.Cycles() {
		t.Fatalf("%s: time %d/%d cycles %d/%d diverged", ctx, si.Now(), sk.Now(), si.Cycles(), sk.Cycles())
	}
	for id := range si.val {
		if si.val[id] != sk.val[id] {
			t.Fatalf("%s: net %s = %v (interp) vs %v (kernel)",
				ctx, si.d.NetName(netlist.NetID(id)), si.val[id], sk.val[id])
		}
	}
	for i := range si.mem {
		for w := range si.mem[i].words {
			if !si.mem[i].words[w].Equal(sk.mem[i].words[w]) {
				t.Fatalf("%s: mem %d word %d: %s vs %s", ctx, i, w,
					si.mem[i].words[w], sk.mem[i].words[w])
			}
		}
	}
	for id := range si.toggled {
		if si.toggled[id] != sk.toggled[id] {
			t.Fatalf("%s: toggle profile diverged on %s", ctx, si.d.NetName(netlist.NetID(id)))
		}
	}
	for id := range si.toggleCount {
		if si.toggleCount[id] != sk.toggleCount[id] {
			t.Fatalf("%s: toggle count diverged on %s: %d vs %d",
				ctx, si.d.NetName(netlist.NetID(id)), si.toggleCount[id], sk.toggleCount[id])
		}
	}
	pi, ci := si.PeakActivity()
	pk, ck := sk.PeakActivity()
	if pi != pk || ci != ck {
		t.Fatalf("%s: peak activity %d@%d vs %d@%d", ctx, pi, ci, pk, ck)
	}
}

// diffTrial runs one random circuit under both engines in lockstep,
// comparing all observable state every step, with forces applied mid-run
// and a snapshot/restore round-trip at the end.
func diffTrial(t *testing.T, seed int64, memx MemXPolicy) {
	r := rand.New(rand.NewSource(seed))
	n, ins := randMemCircuit(r, 2+r.Intn(3), 2+r.Intn(4), 10+r.Intn(40), r.Intn(2) == 0)
	st := randStimulus(r, n, ins, 10)
	si, sk, ti, tk := enginePair(n, st, memx)

	si.StartRecording()
	sk.StartRecording()
	forceNet := netlist.NetID(int(n.Outputs[0]))
	for step := 0; step < 120; step++ {
		if step == 30 {
			si.Force(forceNet, logic.Hi, si.Now()+3*hp)
			sk.Force(forceNet, logic.Hi, sk.Now()+3*hp)
		}
		sti, erri := si.Step()
		stk, errk := sk.Step()
		if (erri == nil) != (errk == nil) || sti != stk {
			t.Fatalf("seed %d step %d: status %v/%v err %v/%v", seed, step, sti, stk, erri, errk)
		}
		if erri != nil {
			break
		}
		checkAgreement(t, fmt.Sprintf("seed %d step %d", seed, step), si, sk)
	}
	if !ti.Equal(tk) {
		t.Fatalf("seed %d: commit traces diverged\ninterp:\n%s\nkernel:\n%s",
			seed, ti.Dump(n), tk.Dump(n))
	}

	// Snapshot both, cross-restore into fresh simulators of the *other*
	// engine, and run on: restored continuations must agree too.
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	sti, stk := si.Snapshot(sp), sk.Snapshot(sp)
	if !sti.Bits.Equal(stk.Bits) || sti.Time != stk.Time {
		t.Fatalf("seed %d: snapshots diverged: %s vs %s", seed, sti.Bits, stk.Bits)
	}
	ri := New(n, Options{MemX: memx})
	rk := NewInterpreter(n, Options{MemX: memx})
	ri.BindStimulus(st)
	rk.BindStimulus(st)
	if err := ri.Restore(sp, sti); err != nil {
		t.Fatal(err)
	}
	if err := rk.Restore(sp, stk); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		s1, e1 := ri.Step()
		s2, e2 := rk.Step()
		if (e1 == nil) != (e2 == nil) || s1 != s2 {
			t.Fatalf("seed %d restored step %d: %v/%v %v/%v", seed, step, s1, s2, e1, e2)
		}
		if e1 != nil {
			break
		}
		checkAgreement(t, fmt.Sprintf("seed %d restored step %d", seed, step), ri, rk)
	}
}

// TestKernelMatchesInterpreterRandom is the always-on differential sweep:
// many random circuits, both X-address policies.
func TestKernelMatchesInterpreterRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		diffTrial(t, seed, MemXVerilog)
		diffTrial(t, seed, MemXSound)
	}
}

// FuzzKernelVsInterpreter lets the fuzzer hunt for scheduling divergence
// between the engines beyond the fixed random sweep.
func FuzzKernelVsInterpreter(f *testing.F) {
	f.Add(uint64(1), false)
	f.Add(uint64(42), true)
	f.Add(uint64(0xdeadbeef), false)
	f.Fuzz(func(t *testing.T, seed uint64, sound bool) {
		memx := MemXVerilog
		if sound {
			memx = MemXSound
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed)
		diffTrial(t, int64(seed%(1<<62)), memx)
	})
}

// TestKernelSweepTriggers pins the adaptive sweep heuristic: a wide level
// whose gates all go dirty at once must be swept, and the swept run must
// still agree with the interpreter. 40 buffers fan out from one input, so
// each toggle dirties the whole level.
func TestKernelSweepTriggers(t *testing.T) {
	n := netlist.New("wide")
	clk := n.AddInput("clk")
	a := n.AddInput("a")
	var outs []netlist.NetID
	for i := 0; i < 40; i++ {
		o := n.AddNet(fmt.Sprintf("b%d", i))
		n.AddGate(netlist.KindBuf, o, a)
		outs = append(outs, o)
	}
	acc := outs[0]
	for i := 1; i < len(outs); i++ {
		nx := n.AddNet(fmt.Sprintf("x%d", i))
		n.AddGate(netlist.KindXor, nx, acc, outs[i])
		acc = nx
	}
	n.MarkOutput(acc)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	st := NewStimulus(clk, hp)
	for c := 0; c < 8; c++ {
		st.At(uint64(2*hp*(c+1)), a, logic.Bool(c%2 == 0))
	}
	st.Finalize()

	ti, tk := &Trace{}, &Trace{}
	si := NewInterpreter(n, Options{Trace: ti})
	sk := New(n, Options{Trace: tk})
	si.BindStimulus(st)
	sk.BindStimulus(st)
	for step := 0; step < 20; step++ {
		if _, err := si.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := sk.Step(); err != nil {
			t.Fatal(err)
		}
		checkAgreement(t, fmt.Sprintf("step %d", step), si, sk)
	}
	if sk.Sweeps() == 0 {
		t.Fatal("kernel never swept the 40-gate level")
	}
	if si.Sweeps() != 0 {
		t.Fatal("interpreter must never sweep")
	}
	if !ti.Equal(tk) {
		t.Fatalf("traces diverged\ninterp:\n%s\nkernel:\n%s", ti.Dump(n), tk.Dump(n))
	}
}

// TestApplyStimulusLateJoin pins the late-join contract: a simulator whose
// first Step lands beyond already-scheduled events still commits them, in
// schedule order, leaving each input at its latest scheduled value — they
// are not silently dropped (the old behaviour left such inputs X forever).
func TestApplyStimulusLateJoin(t *testing.T) {
	n := netlist.New("latejoin")
	clk := n.AddInput("clk")
	a := n.AddInput("a")
	b := n.AddInput("b")
	o := n.AddNet("o")
	n.AddGate(netlist.KindAnd, o, a, b)
	n.MarkOutput(o)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	_ = clk
	for _, eng := range []struct {
		name string
		new  func(*netlist.Netlist, Options) *Simulator
	}{{"interp", NewInterpreter}, {"kernel", New}} {
		s := eng.new(n, Options{})
		// Advance time with an event-free clock first, so the schedule
		// bound below is joined late: its events are already in the past
		// when the next step applies stimulus.
		warm := NewStimulus(n.Inputs[0], hp)
		warm.Finalize()
		s.BindStimulus(warm)
		for i := 0; i < 2; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		st := NewStimulus(n.Inputs[0], hp)
		// Two past assignments to a — the later (Lo) must win — and one
		// past assignment to b.
		st.At(1, a, logic.Hi)
		st.At(2, a, logic.Lo)
		st.At(3, b, logic.Hi)
		st.Finalize()
		s.BindStimulus(st)
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if got := s.Value(a); got != logic.Lo {
			t.Fatalf("%s: late-join a = %v, want Lo (latest scheduled value)", eng.name, got)
		}
		if got := s.Value(b); got != logic.Hi {
			t.Fatalf("%s: late-join b = %v, want Hi", eng.name, got)
		}
		if got := s.Value(o); got != logic.Lo {
			t.Fatalf("%s: o = %v, want Lo", eng.name, got)
		}
	}
}
