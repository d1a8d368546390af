package polar

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"polar/internal/ir"
	"polar/internal/race"
)

// prepareLoop hardens a micro-module program whose @main(n) runs body n
// times, after setup, and prepares it.
func prepareLoop(t *testing.T, setup func(bd *ir.Builder, st *ir.StructType) []ir.Value, body func(bd *ir.Builder, st *ir.StructType, objs []ir.Value)) *Prepared {
	t.Helper()
	m, st := microModule()
	bd := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	objs := setup(bd, st)
	bd.CountedLoop("l", bd.ParamReg(0), func(ir.Value) { body(bd, st, objs) })
	bd.Ret(ir.Const(0))
	h, err := Harden(m, nil)
	if err != nil {
		t.Fatalf("harden: %v", err)
	}
	p, err := PrepareHardened(h)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return p
}

// loopAllocs returns the Go allocations per loop iteration of p: the
// difference between a long and a short run, so per-run set-up cancels,
// rounded to two decimals, so the few allocations a run's set-up varies
// by do not count. A first run warms the program's shared layout
// interner; every run uses the same seed, so the measured runs draw only
// layouts it holds.
func loopAllocs(t *testing.T, p *Prepared) float64 {
	t.Helper()
	run := func(n int64) func() {
		return func() {
			if _, err := p.Run(WithArgs(n)); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
	}
	run(20000)()
	short := testing.AllocsPerRun(3, run(1000))
	long := testing.AllocsPerRun(3, run(11000))
	return math.Round((long-short)/10000*100) / 100
}

// TestHardenedLoopAllocs gates the hardened hot loops end to end: an
// olr_malloc/olr_free iteration allocates at most the ObjectMeta record,
// and an olr_memcpy between two tracked objects allocates nothing.
func TestHardenedLoopAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	malloc := prepareLoop(t,
		func(*ir.Builder, *ir.StructType) []ir.Value { return nil },
		func(bd *ir.Builder, st *ir.StructType, _ []ir.Value) { bd.Free(bd.Alloc(st)) })
	if n := loopAllocs(t, malloc); n > 1 {
		t.Errorf("olr_malloc + olr_free: %v allocs/iteration, want <= 1", n)
	}
	memcpy := prepareLoop(t,
		func(bd *ir.Builder, st *ir.StructType) []ir.Value {
			p, q := bd.Alloc(st), bd.Alloc(st)
			for i := range st.Fields {
				bd.Store(ir.I64, ir.Const(int64(i)), bd.FieldPtr(st, p, i))
			}
			return []ir.Value{p, q}
		},
		func(bd *ir.Builder, st *ir.StructType, o []ir.Value) {
			bd.Memcpy(o[1], o[0], ir.Const(int64(st.Size())))
		})
	if n := loopAllocs(t, memcpy); n != 0 {
		t.Errorf("olr_memcpy: %v allocs/iteration, want 0", n)
	}
}

// TestStatelessMemoCollisions runs a member-wise copy and an epoch
// rekey in stateless mode with a one-entry derivation memo, so every
// base collides and each derivation evicts the previous one: a layout
// the copy or the remap still holds must not be overwritten by the next
// derivation. The value and the trace digest are pinned to what the
// program produced before layouts were generated into reused buffers.
func TestStatelessMemoCollisions(t *testing.T) {
	m := ir.NewModule("collide")
	st := m.MustStruct(ir.NewStruct("Obj",
		ir.Field{Name: "vt", Type: ir.Fptr},
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I32},
		ir.Field{Name: "c", Type: ir.I64},
	))
	bd := ir.NewFunc(m, "main", ir.I64)
	// digest reads a, b, c of obj as the decimal digits aabbcc.
	digest := func(obj ir.Value) ir.Value {
		a := bd.Load(ir.I64, bd.FieldPtrName(st, obj, "a"))
		b := bd.Load(ir.I32, bd.FieldPtrName(st, obj, "b"))
		c := bd.Load(ir.I64, bd.FieldPtrName(st, obj, "c"))
		return bd.Bin(ir.BinAdd, bd.Bin(ir.BinMul, a, ir.Const(10000)),
			bd.Bin(ir.BinAdd, bd.Bin(ir.BinMul, b, ir.Const(100)), c))
	}
	p, q := bd.Alloc(st), bd.Alloc(st)
	bd.Store(ir.I64, ir.Const(11), bd.FieldPtrName(st, p, "a"))
	bd.Store(ir.I32, ir.Const(22), bd.FieldPtrName(st, p, "b"))
	bd.Store(ir.I64, ir.Const(33), bd.FieldPtrName(st, p, "c"))
	bd.Memcpy(q, p, ir.Const(int64(st.Size())))
	copied := digest(q)
	bd.Free(bd.Alloc(st)) // with rekey-every 1, this free remaps p and q
	afterQ, afterP := digest(q), digest(p)
	const mega = 1_000_000
	bd.Ret(bd.Bin(ir.BinAdd, copied, bd.Bin(ir.BinMul, bd.Bin(ir.BinAdd, afterQ, bd.Bin(ir.BinMul, afterP, ir.Const(mega))), ir.Const(mega))))
	h, err := Harden(m, nil)
	if err != nil {
		t.Fatalf("harden: %v", err)
	}
	var buf bytes.Buffer
	xw := NewExecTrace(&buf)
	res, err := RunHardened(h, WithSeed(3), WithLayoutMode(LayoutModeStateless),
		WithCacheSize(1), WithRekeyEvery(1), WithExecTrace(xw))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := xw.Close(); err != nil {
		t.Fatalf("close trace: %v", err)
	}
	if res.Value != 112233_112233_112233 {
		t.Errorf("value = %d, want 112233112233112233 (a=11 b=22 c=33 in q after the copy, in q and p after the rekey)", res.Value)
	}
	const wantTrace = "77b98ccba00234d1a441c801186d88bfaa6e7feed6aa5cf6aac3da19c12c4d5f"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != wantTrace {
		t.Errorf("trace sha256 = %s, want %s", got, wantTrace)
	}
}
