package vm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// richModule builds a module exercising every opcode — allocation,
// loads/stores of every width, the fused pairs (fieldptr+load,
// fieldptr+store, cmp+condbr), float ops, conversions, memcpy/memset,
// elemptr/ptradd, global and func-ref operands, recursion, builtins —
// so one differential run covers the whole lowering surface.
func richModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("rich")
	if _, err := m.AddGlobal("g", 64, []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x08}); err != nil {
		t.Fatal(err)
	}
	st := m.MustStruct(ir.NewStruct("Node",
		ir.Field{Name: "val", Type: ir.I64},
		ir.Field{Name: "small", Type: ir.I8},
		ir.Field{Name: "next", Type: ir.Raw},
	))

	fb := ir.NewFunc(m, "mix", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	n := fb.ParamReg(0)
	small := fb.Cmp(ir.CmpLt, n, ir.Const(2))
	fb.If("base", small, func() { fb.Ret(n) }, nil)
	a := fb.Call("mix", fb.Bin(ir.BinSub, n, ir.Const(1)))
	b2 := fb.Call("mix", fb.Bin(ir.BinSub, n, ir.Const(2)))
	fb.Ret(fb.Bin(ir.BinAdd, a, b2))

	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	sum := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), sum)

	// Heap object: fused fieldptr+store then fieldptr+load, with a
	// negative i8 store to exercise sign-extending fused loads.
	node := b.Alloc(st)
	b.Store(ir.I64, ir.Const(40), b.FieldPtr(st, node, 0))
	b.Store(ir.I8, ir.Const(-6), b.FieldPtr(st, node, 1))
	v0 := b.Load(ir.I64, b.FieldPtr(st, node, 0))
	v1 := b.Load(ir.I8, b.FieldPtr(st, node, 1))
	b.Store(ir.I64, b.Bin(ir.BinAdd, v0, v1), sum)

	// Loop with fused cmp+condbr, elemptr indexing, memset/memcpy.
	arr := b.AllocN(ir.I64, ir.Const(8))
	b.Memset(arr, ir.Const(0), ir.Const(64))
	b.CountedLoop("fill", ir.Const(8), func(i ir.Value) {
		b.Store(ir.I64, b.Bin(ir.BinMul, i, i), b.ElemPtr(ir.I64, arr, i))
	})
	b.Memcpy(b.PtrAdd(arr, ir.Const(8)), arr, ir.Const(24))
	loopAcc := b.Load(ir.I64, b.ElemPtr(ir.I64, arr, ir.Const(3)))
	b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), loopAcc), sum)

	// Floats, conversions, global and func-ref operands.
	f := b.FBin(ir.BinMul, b.ItoF(b.ParamReg(0)), ir.ConstF(1.5))
	fcmp := b.FCmp(ir.CmpGt, f, ir.ConstF(2.0))
	gv := b.Load(ir.I64, ir.Global("g"))
	slot := b.Local(ir.Fptr)
	b.Store(ir.Fptr, ir.FuncRef("mix"), slot)
	handle := b.Load(ir.Fptr, slot)
	hbit := b.Bin(ir.BinAnd, handle, ir.Const(0xff))
	mixed := b.Bin(ir.BinXor, gv, b.Bin(ir.BinAdd, b.FtoI(f), fcmp))
	b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), b.Bin(ir.BinAnd, mixed, ir.Const(0xffff))), sum)
	b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), hbit), sum)

	// Calls (recursion), builtins, input, mov, free.
	fib := b.Call("mix", ir.Const(10))
	inb := b.Call("input_byte", ir.Const(0))
	b.CallVoid("print_i64", fib)
	moved := b.Mov(fib)
	b.Free(node)
	b.Free(arr)
	total := b.Bin(ir.BinAdd, b.Load(ir.I64, sum), b.Bin(ir.BinAdd, moved, inb))
	b.Ret(total)
	return m
}

// runEngine executes the module on one engine and returns everything
// observable.
func runEngine(t *testing.T, m *ir.Module, e Engine, opts []Option, args ...int64) (*VM, int64, error) {
	t.Helper()
	v, err := New(ir.Clone(m), append([]Option{WithEngine(e)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := v.Run(args...)
	return v, res, runErr
}

func TestEnginesDifferentialRichProgram(t *testing.T) {
	m := richModule(t)
	opts := []Option{WithInput([]byte{9, 8, 7}), WithCoverage()}
	vb, rb, eb := runEngine(t, m, EngineBytecode, opts, 5)
	vl, rl, el := runEngine(t, m, EngineLegacy, opts, 5)
	if (eb == nil) != (el == nil) || (eb != nil && eb.Error() != el.Error()) {
		t.Fatalf("errors differ: bytecode=%v legacy=%v", eb, el)
	}
	if rb != rl {
		t.Fatalf("results differ: bytecode=%d legacy=%d", rb, rl)
	}
	if vb.Stats != vl.Stats {
		t.Fatalf("stats differ:\nbytecode %+v\nlegacy   %+v", vb.Stats, vl.Stats)
	}
	if string(vb.Output()) != string(vl.Output()) {
		t.Fatalf("outputs differ: %q vs %q", vb.Output(), vl.Output())
	}
	if !reflect.DeepEqual(vb.Coverage(), vl.Coverage()) {
		t.Fatal("coverage bitmaps differ between engines")
	}
}

// TestEnginesDifferentialFuelSweep holds both engines to identical
// behavior at every fuel value: the same success/error (same message,
// same site) and the same Stats, including across superinstruction
// boundaries where the bytecode engine must execute exactly half a
// fused pair before reporting exhaustion.
func TestEnginesDifferentialFuelSweep(t *testing.T) {
	m := richModule(t)
	// Find the total instruction count once, then sweep past it.
	v, err := New(ir.Clone(m), WithEngine(EngineLegacy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(5); err != nil {
		t.Fatal(err)
	}
	total := v.Stats.Instructions
	if total == 0 || total > 40_000 {
		t.Fatalf("unexpected program length %d", total)
	}
	for fuel := uint64(0); fuel <= total+2; fuel++ {
		opts := []Option{WithFuel(fuel), WithInput([]byte{9, 8, 7})}
		vb, rb, eb := runEngine(t, m, EngineBytecode, opts, 5)
		vl, rl, el := runEngine(t, m, EngineLegacy, opts, 5)
		if (eb == nil) != (el == nil) || (eb != nil && eb.Error() != el.Error()) {
			t.Fatalf("fuel=%d: errors differ:\nbytecode: %v\nlegacy:   %v", fuel, eb, el)
		}
		if rb != rl {
			t.Fatalf("fuel=%d: results differ: %d vs %d", fuel, rb, rl)
		}
		if vb.Stats != vl.Stats {
			t.Fatalf("fuel=%d: stats differ:\nbytecode %+v\nlegacy   %+v", fuel, vb.Stats, vl.Stats)
		}
		if fuel < total && eb == nil {
			t.Fatalf("fuel=%d < total=%d but run succeeded", fuel, total)
		}
	}
}

// TestEnginesDifferentialFaults checks fault parity: same wrapped error
// text and same instruction counts when the program dies mid-block.
func TestEnginesDifferentialFaults(t *testing.T) {
	build := func(f func(b *ir.Builder, st *ir.StructType)) *ir.Module {
		m := ir.NewModule("faulty")
		st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
		b := ir.NewFunc(m, "main", ir.I64)
		f(b, st)
		return m
	}
	cases := map[string]*ir.Module{
		"null-deref": build(func(b *ir.Builder, st *ir.StructType) {
			b.Ret(b.Load(ir.I64, ir.Const(16)))
		}),
		"fused-load-fault": build(func(b *ir.Builder, st *ir.StructType) {
			// fieldptr+load fuses; the load half faults in the null guard.
			p := b.FieldPtr(st, ir.Const(0x10), 0)
			b.Ret(b.Load(ir.I64, p))
		}),
		"fused-store-fault": build(func(b *ir.Builder, st *ir.StructType) {
			p := b.FieldPtr(st, ir.Const(0x10), 0)
			b.Store(ir.I64, ir.Const(1), p)
			b.Ret(ir.Const(0))
		}),
		"div-zero": build(func(b *ir.Builder, st *ir.StructType) {
			b.Ret(b.Bin(ir.BinDiv, ir.Const(3), ir.Const(0)))
		}),
		"double-free": build(func(b *ir.Builder, st *ir.StructType) {
			p := b.Alloc(st)
			b.Free(p)
			b.Free(p)
			b.Ret(ir.Const(0))
		}),
		"unknown-builtin": build(func(b *ir.Builder, st *ir.StructType) {
			b.Ret(b.Call("rt_no_such_builtin"))
		}),
		"abort": build(func(b *ir.Builder, st *ir.StructType) {
			b.CallVoid("rt_abort", ir.Const(3))
			b.Ret(ir.Const(0))
		}),
	}
	for name, m := range cases {
		vb, _, eb := runEngine(t, m, EngineBytecode, nil)
		vl, _, el := runEngine(t, m, EngineLegacy, nil)
		if eb == nil || el == nil {
			t.Fatalf("%s: expected both engines to fail, got bytecode=%v legacy=%v", name, eb, el)
		}
		if eb.Error() != el.Error() {
			t.Fatalf("%s: error text differs:\nbytecode: %v\nlegacy:   %v", name, eb, el)
		}
		if vb.Stats != vl.Stats {
			t.Fatalf("%s: stats differ:\nbytecode %+v\nlegacy   %+v", name, vb.Stats, vl.Stats)
		}
	}
}

// TestFusedIntermediateRegisterVisible: the fieldptr register of a
// fused pair must hold the derived pointer afterwards — later
// instructions (here: a second store through the same register) depend
// on it.
func TestFusedIntermediateRegisterVisible(t *testing.T) {
	m := ir.NewModule("fusedreg")
	st := m.MustStruct(ir.NewStruct("S", ir.Field{Name: "x", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	p := b.Alloc(st)
	fp := b.FieldPtr(st, p, 0) // fuses with the next load
	first := b.Load(ir.I64, fp)
	// Store the pointer value itself through the fused pair's register.
	b.Store(ir.I64, fp, fp)
	second := b.Load(ir.I64, fp)
	b.Ret(b.Bin(ir.BinAdd, first, b.Bin(ir.BinSub, second, fp)))
	for _, e := range []Engine{EngineBytecode, EngineLegacy} {
		got, err := mustVM(t, ir.Clone(m), WithEngine(e)).Run()
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != 0 {
			t.Fatalf("%v: got %d, want 0", e, got)
		}
	}
}

// TestBytecodeFallsBackForObservers: hooks and instruction tracing are
// tree-walker facilities; a bytecode-configured VM must transparently
// run legacy when they are attached (and still produce the events).
func TestBytecodeFallsBackForObservers(t *testing.T) {
	m := ir.NewModule("fallback")
	b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(b.Bin(ir.BinAdd, ir.Const(1), ir.Const(2)))

	var tr strings.Builder
	v := mustVM(t, ir.Clone(m), WithEngine(EngineBytecode), WithTrace(&tr, 0))
	if v.useBytecode() {
		t.Fatal("instruction tracing must fall back to the tree-walker")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "add 1, 2") {
		t.Fatalf("trace empty under fallback: %q", tr.String())
	}

	h := &countingHooks{}
	v2 := mustVM(t, ir.Clone(m), WithEngine(EngineBytecode), WithHooks(h))
	if v2.useBytecode() {
		t.Fatal("hooks must fall back to the tree-walker")
	}
	if _, err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	if h.enters == 0 || h.bins == 0 {
		t.Fatalf("hooks not fired under fallback: %+v", h)
	}

	v3 := mustVM(t, ir.Clone(m), WithEngine(EngineBytecode))
	if !v3.useBytecode() {
		t.Fatal("plain bytecode VM should not fall back")
	}
}

type countingHooks struct {
	enters, bins int
}

func (h *countingHooks) Enter(fn *ir.Func, args []ir.Value)     { h.enters++ }
func (h *countingHooks) Exit(retArg *ir.Value, callerDest int)  {}
func (h *countingHooks) Load(dest int, addr uint64, size int)   {}
func (h *countingHooks) Store(src ir.Value, addr uint64, n int) {}
func (h *countingHooks) Bin(dest int, a, b ir.Value)            { h.bins++ }
func (h *countingHooks) Un(dest int, a ir.Value)                {}
func (h *countingHooks) PtrDerive(dest int, base ir.Value)      {}
func (h *countingHooks) Memcpy(dst, src uint64, n int)          {}
func (h *countingHooks) Memset(dst uint64, n int)               {}
func (h *countingHooks) CondBr(cond ir.Value)                   {}
func (h *countingHooks) Alloc(dest int, addr uint64, size int, st *ir.StructType) {
}
func (h *countingHooks) Free(addr uint64) {}
func (h *countingHooks) Builtin(name string, args []ir.Value, argVals []int64, ret int64, dest int) {
}

// TestProfilerAttributionConservation: with per-instruction
// attribution, total profiled cycles must equal Stats.Instructions
// exactly — in both engines — and the per-site profiles must agree
// between engines.
func TestProfilerAttributionConservation(t *testing.T) {
	m := richModule(t)
	profiles := make(map[Engine][]profile.SiteSample)
	for _, e := range []Engine{EngineBytecode, EngineLegacy} {
		p := profile.NewSiteProfiler()
		v := mustVM(t, ir.Clone(m), WithEngine(e), WithProfiler(p), WithInput([]byte{9}))
		if _, err := v.Run(6); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		cycles, _, _ := p.Totals()
		if cycles != v.Stats.Instructions {
			t.Fatalf("%v: profiled cycles %d != executed instructions %d", e, cycles, v.Stats.Instructions)
		}
		profiles[e] = p.Snapshot()
	}
	if !reflect.DeepEqual(profiles[EngineBytecode], profiles[EngineLegacy]) {
		t.Fatalf("per-site profiles differ:\nbytecode: %+v\nlegacy:   %+v",
			profiles[EngineBytecode], profiles[EngineLegacy])
	}
}

// TestProfilerEarlyExitNoOvercharge: a fault on the first instruction
// of a long block must charge 1 cycle, not the whole block (the old
// block-entry accounting charged all of it).
func TestProfilerEarlyExitNoOvercharge(t *testing.T) {
	m := ir.NewModule("early")
	b := ir.NewFunc(m, "main", ir.I64)
	v0 := b.Load(ir.I64, ir.Const(8)) // faults immediately
	pad := v0
	for i := 0; i < 20; i++ {
		pad = b.Bin(ir.BinAdd, pad, ir.Const(1))
	}
	b.Ret(pad)
	for _, e := range []Engine{EngineBytecode, EngineLegacy} {
		p := profile.NewSiteProfiler()
		v := mustVM(t, ir.Clone(m), WithEngine(e), WithProfiler(p))
		if _, err := v.Run(); err == nil {
			t.Fatalf("%v: expected fault", e)
		}
		cycles, _, _ := p.Totals()
		if cycles != 1 {
			t.Fatalf("%v: early fault charged %d cycles, want 1", e, cycles)
		}
		if v.Stats.Instructions != 1 {
			t.Fatalf("%v: Stats.Instructions = %d, want 1", e, v.Stats.Instructions)
		}
	}
}

// TestRegisterBuiltinRebindsBothEngines: re-registering a builtin after
// a run must take effect in the bytecode slot table and in the legacy
// engine's call-site binding cache.
func TestRegisterBuiltinRebindsBothEngines(t *testing.T) {
	m := ir.NewModule("rebind")
	b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(b.Call("rt_custom"))
	for _, e := range []Engine{EngineBytecode, EngineLegacy} {
		v := mustVM(t, ir.Clone(m), WithEngine(e))
		if _, err := v.Run(); !errors.Is(err, ErrUnknownFunc) {
			t.Fatalf("%v: want ErrUnknownFunc before registration, got %v", e, err)
		}
		v.RegisterBuiltin("rt_custom", func(c *Call) (int64, error) { return 41, nil })
		if got, err := v.Run(); err != nil || got != 41 {
			t.Fatalf("%v: after registration: %d, %v", e, got, err)
		}
		v.RegisterBuiltin("rt_custom", func(c *Call) (int64, error) { return 42, nil })
		if got, err := v.Run(); err != nil || got != 42 {
			t.Fatalf("%v: after re-registration: %d, %v", e, got, err)
		}
	}
}

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		err  bool
	}{
		{"bytecode", EngineBytecode, false},
		{"", EngineBytecode, false},
		{"legacy", EngineLegacy, false},
		{"tree", EngineLegacy, false},
		{"treewalk", EngineLegacy, false},
		{"warp", EngineBytecode, true},
	}
	for _, tc := range cases {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if EngineBytecode.String() != "bytecode" || EngineLegacy.String() != "legacy" {
		t.Error("Engine.String mismatch")
	}
}

// TestLoweringFusesPairs sanity-checks the lowered form itself: under
// the default fuse-all plan the rich module must contain generalized
// bcFused runs, and with generic fusion disabled (FusionTopK < 0) the
// classic peephole pairs must reappear — otherwise the differential
// tests exercise nothing on one of the two fusion paths.
func TestLoweringFusesPairs(t *testing.T) {
	countOps := func(p *Program) map[bcOp]int {
		found := map[bcOp]int{}
		for _, bf := range p.bcFuncs {
			for i := range bf.code {
				found[bf.code[i].op]++
			}
		}
		return found
	}
	checkWeights := func(p *Program) {
		// Weight bookkeeping: per function, block costs sum to the source
		// instruction count regardless of how the fuser carved the runs.
		for fi, bf := range p.bcFuncs {
			var lowered uint32
			for _, bb := range bf.blocks {
				lowered += bb.cost
			}
			var source uint32
			for _, blk := range p.mod.Funcs[fi].Blocks {
				source += uint32(len(blk.Instrs))
			}
			if lowered != source {
				t.Errorf("@%s: lowered weight %d != source instructions %d", bf.fn.Name, lowered, source)
			}
		}
	}

	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	found := countOps(p)
	if found[bcFused] == 0 {
		t.Errorf("fuse-all lowering produced no bcFused runs (counts: %v)", found)
	}
	// Every fused run must account as many source instructions as it
	// carries micro-ops.
	for _, bf := range p.bcFuncs {
		for i := range bf.code {
			if in := &bf.code[i]; in.op == bcFused {
				if len(in.micro) < 2 {
					t.Errorf("@%s: bcFused with %d micros", bf.fn.Name, len(in.micro))
				}
				if in.weight() != uint32(len(in.micro)) {
					t.Errorf("@%s: bcFused weight %d != %d micros", bf.fn.Name, in.weight(), len(in.micro))
				}
			}
		}
	}
	checkWeights(p)

	pc, err := CompileWith(richModule(t), CompileOpts{FusionTopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	classic := countOps(pc)
	if classic[bcFused] != 0 {
		t.Errorf("FusionTopK=-1 still produced %d bcFused runs", classic[bcFused])
	}
	for _, op := range []bcOp{bcFieldLoad, bcFieldStore, bcCmpBr} {
		if classic[op] == 0 {
			t.Errorf("classic lowering contains no %d superinstruction (counts: %v)", op, classic)
		}
	}
	checkWeights(pc)
}

// TestFuelSweepSuccessStatsStable: once fuel suffices, Stats must be
// independent of the exact fuel value (no refund-accounting leaks).
func TestFuelSweepSuccessStatsStable(t *testing.T) {
	m := richModule(t)
	var want Stats
	for i, fuel := range []uint64{0, 1, 7, 1 << 30} {
		v := mustVM(t, ir.Clone(m), WithEngine(EngineBytecode), WithInput([]byte{9}))
		if fuel != 0 {
			v = mustVM(t, ir.Clone(m), WithEngine(EngineBytecode), WithInput([]byte{9}), WithFuel(1<<30+fuel))
		}
		if _, err := v.Run(4); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = v.Stats
		} else if v.Stats != want {
			t.Fatalf("fuel variant %d changed stats: %+v != %+v", fuel, v.Stats, want)
		}
	}
}

func ExampleParseEngine() {
	e, _ := ParseEngine("legacy")
	fmt.Println(e)
	// Output: legacy
}
