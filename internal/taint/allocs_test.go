package taint

import (
	"testing"

	"polar/internal/ir"
	"polar/internal/race"
	"polar/internal/vm"
)

// TestTaintEngineCallAllocs gates the flat label stack: once it has
// grown, a hooked call and return allocate nothing, on the engine alone
// and end to end on a hooked bytecode instance.
func TestTaintEngineCallAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	m := ir.NewModule("calls")
	if _, err := m.AddGlobal("buf", 64, nil); err != nil {
		t.Fatal(err)
	}
	leaf := ir.NewFunc(m, "leaf", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	v := leaf.Load(ir.I64, ir.Global("buf"))
	sum := leaf.Bin(ir.BinAdd, v, leaf.ParamReg(0))
	leaf.Store(ir.I64, sum, ir.Global("buf"))
	leaf.Ret(sum)
	loop := ir.NewFunc(m, "loop", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	loop.CountedLoop("calls", loop.ParamReg(0), func(i ir.Value) {
		loop.Call("leaf", i)
	})
	loop.Ret(ir.Const(0))
	b := ir.NewFunc(m, "main", ir.I64)
	b.Call("input_read", ir.Global("buf"), ir.Const(0), ir.Const(8))
	b.Ret(b.Call("loop", ir.Const(4)))

	eng := NewEngine(nil)
	fn := m.Func("leaf")
	args := []int32{0}
	eng.Enter(m.Func("loop"), nil)
	pair := func() {
		eng.Enter(fn, args)
		eng.Bin(1, 0, vm.NoReg)
		eng.Exit(1, 2)
	}
	pair()
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("Engine Enter/Exit: %v allocs/op, want 0", n)
	}

	eng = NewEngine(nil)
	inst, err := vm.New(ir.Clone(m), vm.WithHooks(eng), vm.WithInput([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Bind(inst)
	if _, err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	calls := func() {
		if _, err := inst.CallFunc("loop", 64); err != nil {
			t.Fatal(err)
		}
	}
	calls()
	if n := testing.AllocsPerRun(20, calls); n != 0 {
		t.Errorf("hooked bytecode run of 64 calls: %v allocs/op, want 0", n)
	}
	if len(eng.frames) != 0 || len(eng.labels) != 0 {
		t.Errorf("label stack not empty after the runs: %d labels", len(eng.labels))
	}
}
