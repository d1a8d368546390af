package vm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"polar/internal/ir"
	"polar/internal/workload"
)

// recordingHooks records every Hooks event as one line of text, copying
// the scratch slices the VM lends it.
type recordingHooks struct {
	events []string
}

func (h *recordingHooks) add(format string, args ...any) {
	h.events = append(h.events, fmt.Sprintf(format, args...))
}

func stName(st *ir.StructType) string {
	if st == nil {
		return "-"
	}
	return st.Name
}

func (h *recordingHooks) Enter(fn *ir.Func, args []int32) { h.add("enter %s %v", fn.Name, args) }
func (h *recordingHooks) Exit(ret int32, callerDest int)  { h.add("exit %d %d", ret, callerDest) }
func (h *recordingHooks) Load(dest int, addr uint64, size int) {
	h.add("load %d %#x %d", dest, addr, size)
}
func (h *recordingHooks) Store(src int32, addr uint64, size int) {
	h.add("store %d %#x %d", src, addr, size)
}
func (h *recordingHooks) Bin(dest int, a, b int32)            { h.add("bin %d %d %d", dest, a, b) }
func (h *recordingHooks) Un(dest int, a int32)                { h.add("un %d %d", dest, a) }
func (h *recordingHooks) PtrDerive(dest int, base int32)      { h.add("ptr %d %d", dest, base) }
func (h *recordingHooks) Memcpy(dst, src uint64, n int)       { h.add("memcpy %#x %#x %d", dst, src, n) }
func (h *recordingHooks) Memset(dst uint64, n int)            { h.add("memset %#x %d", dst, n) }
func (h *recordingHooks) CondBr(cond int32)                   { h.add("condbr %d", cond) }
func (h *recordingHooks) Free(addr uint64, st *ir.StructType) { h.add("free %#x %s", addr, stName(st)) }
func (h *recordingHooks) Alloc(dest int, addr uint64, size int, st *ir.StructType) {
	h.add("alloc %d %#x %d %s", dest, addr, size, stName(st))
}
func (h *recordingHooks) Builtin(name string, args []int32, argVals []int64, ret int64, dest int) {
	h.add("builtin %s %v %v %d %d", name, args, argVals, ret, dest)
}

// hookedRun is everything observable about one hooked run.
type hookedRun struct {
	events []string
	ret    int64
	err    string
	stats  Stats
	output string
}

func runHooked(t testing.TB, p *Program, e Engine, opts []Option, args ...int64) hookedRun {
	t.Helper()
	h := &recordingHooks{}
	v, err := p.NewInstance(append([]Option{WithEngine(e), WithHooks(h)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := v.Run(args...)
	out := hookedRun{events: h.events, ret: r, stats: v.Stats, output: string(v.Output())}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// diffHooked fails t at the first difference between two runs.
func diffHooked(t testing.TB, label string, b, l hookedRun) {
	t.Helper()
	if b.err != l.err || b.ret != l.ret || b.stats != l.stats || b.output != l.output {
		t.Fatalf("%s: runs differ:\nbytecode %d %q %+v\nlegacy   %d %q %+v", label, b.ret, b.err, b.stats, l.ret, l.err, l.stats)
	}
	for i := range min(len(b.events), len(l.events)) {
		if b.events[i] != l.events[i] {
			t.Fatalf("%s: event %d differs:\nbytecode %s\nlegacy   %s", label, i, b.events[i], l.events[i])
		}
	}
	if len(b.events) != len(l.events) {
		t.Fatalf("%s: %d bytecode events, %d legacy events", label, len(b.events), len(l.events))
	}
}

// aliasSrc covers the hooked lowering's special cases: a load and an
// alloc whose dest overwrites their own operand, builtin calls with and
// without a dest, a void call whose result is bound, a free of a
// tracked object, and ret/condbr terminators at every depth.
const aliasSrc = `module "alias"

struct %S { i64 a; i64 b; }

global @buf 64

func @void_fn(i64 %r0) void {
entry:
  %r1 = add %r0, 1
  ret
}

func @get(i64 %r0) i64 {
entry:
  %r1 = lt %r0, 3
  condbr %r1, small, big
small:
  ret %r0
big:
  %r2 = sub %r0, 1
  %r3 = call @get(%r2)
  ret 7
}

func @main() i64 {
entry:
  call @input_read(@buf, 0, 16)
  %r0 = call @input_byte(1)
  %r1 = local i64
  store i64 @buf, %r1
  %r1 = load i64, %r1
  %r2 = add %r0, 2
  %r2 = alloc %S, %r2
  %r3 = fieldptr %S, %r2, 1
  store i64 %r0, %r3
  %r4 = load i64, %r3
  %r5 = call @void_fn(%r4)
  %r6 = call @get(%r0)
  memcpy %r2, @buf, 8
  memset @buf, 0, 4
  free %r2
  %r7 = add %r6, %r5
  ret %r7
}
`

func aliasModule(t testing.TB) *ir.Module {
	t.Helper()
	m, err := ir.Parse(aliasSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHookStreamsMatchAcrossEngines: the hooked lowering reports the
// tree-walker's event stream, event for event, on the rich module and
// the aliasing module.
func TestHookStreamsMatchAcrossEngines(t *testing.T) {
	for _, tc := range []struct {
		m    *ir.Module
		args []int64
	}{{richModule(t), []int64{5}}, {aliasModule(t), nil}} {
		p, err := Compile(ir.Clone(tc.m))
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithInput([]byte{9, 8, 7, 6, 5})}
		b := runHooked(t, p, EngineBytecode, opts, tc.args...)
		l := runHooked(t, p, EngineLegacy, opts, tc.args...)
		if b.err != "" || len(b.events) < 20 {
			t.Fatalf("%s: %d events, err %q", tc.m.Name, len(b.events), b.err)
		}
		diffHooked(t, tc.m.Name, b, l)
	}
}

// TestHookStreamsFuelSweep holds the hooked lowering to the
// tree-walker's event stream at every fuel value: an event fires only
// for an instruction that ran, and no branch or return event fires when
// fuel runs out on the terminator itself.
func TestHookStreamsFuelSweep(t *testing.T) {
	for _, tc := range []struct {
		m    *ir.Module
		args []int64
	}{{aliasModule(t), nil}, {richModule(t), []int64{3}}} {
		p, err := Compile(ir.Clone(tc.m))
		if err != nil {
			t.Fatal(err)
		}
		full := runHooked(t, p, EngineLegacy, nil, tc.args...)
		if full.err != "" {
			t.Fatal(full.err)
		}
		for fuel := uint64(0); fuel <= full.stats.Instructions+1; fuel++ {
			opts := []Option{WithFuel(fuel), WithInput([]byte{9, 8, 7})}
			b := runHooked(t, p, EngineBytecode, opts, tc.args...)
			l := runHooked(t, p, EngineLegacy, opts, tc.args...)
			diffHooked(t, fmt.Sprintf("%s fuel=%d", tc.m.Name, fuel), b, l)
		}
	}
}

// TestHookedConcurrentInstances runs hooked bytecode instances of one
// Program from many goroutines: the hooked lowering is built once,
// lazily, and every instance reports the same stream (run under -race).
func TestHookedConcurrentInstances(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	want := runHooked(t, p, EngineLegacy, nil, 4)
	p, err = Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]hookedRun, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := &recordingHooks{}
			v, err := p.NewInstance(WithHooks(h))
			if err != nil {
				t.Error(err)
				return
			}
			r, err := v.Run(4)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = hookedRun{events: h.events, ret: r, stats: v.Stats, output: string(v.Output())}
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			diffHooked(t, fmt.Sprintf("worker %d", i), got[i], want)
		}
	}
}

// TestHookedLoweringLeavesDefaultAlone: building the hooked lowering
// changes neither the default lowering's fingerprint nor its
// inline-cache numbering.
func TestHookedLoweringLeavesDefaultAlone(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	fp, sites := p.Fingerprint(), p.numICSites
	hooked := p.hookedFuncs()
	if p.Fingerprint() != fp || p.numICSites != sites {
		t.Fatal("hooked lowering changed the default lowering")
	}
	for i, bf := range hooked {
		if bf.numRegs != bf.fn.NumRegs+1 || bf.covHash != p.bcFuncs[i].covHash {
			t.Fatalf("@%s: hooked frame %d regs, want %d", bf.fn.Name, bf.numRegs, bf.fn.NumRegs+1)
		}
		for pc := range bf.code {
			if in := &bf.code[pc]; in.op == bcFused || in.ic >= 0 || (in.op >= bcFieldLoad && in.op <= bcCmpBr) {
				t.Fatalf("@%s pc %d: hooked lowering has fused or cached op %d", bf.fn.Name, pc, in.op)
			}
		}
	}
}

// oldEdgeHash is the coverage edge formula as it stood when it hashed
// the function name at every block entry.
func oldEdgeHash(fn *ir.Func, prev, cur int) uint16 {
	h := uint64(14695981039346656037)
	for _, ch := range fn.Name {
		h = (h ^ uint64(ch)) * 1099511628211
	}
	h = (h ^ uint64(uint32(prev+1))) * 1099511628211
	h = (h ^ uint64(uint32(cur+1))) * 1099511628211
	return uint16(h)
}

// TestEdgeHashMatchesNameFormula: the compile-time name hash leaves
// every coverage edge of every function of the 15 workloads where the
// per-block formula put it, in both lowerings.
func TestEdgeHashMatchesNameFormula(t *testing.T) {
	funcs := 0
	for _, w := range workload.All() {
		p, err := Compile(ir.Clone(w.Module))
		if err != nil {
			t.Fatal(err)
		}
		for i, bf := range p.bcFuncs {
			funcs++
			if hb := p.hookedFuncs()[i].covHash; hb != bf.covHash {
				t.Fatalf("%s @%s: hooked name hash %#x, default %#x", w.Name, bf.fn.Name, hb, bf.covHash)
			}
			for prev := -1; prev < len(bf.blocks); prev++ {
				for cur := range bf.blocks {
					if got, want := edgeHash(bf.covHash, prev, cur), oldEdgeHash(bf.fn, prev, cur); got != want {
						t.Fatalf("%s @%s edge %d->%d: %#x, want %#x", w.Name, bf.fn.Name, prev, cur, got, want)
					}
				}
			}
		}
	}
	if funcs < 15 {
		t.Fatalf("only %d functions checked", funcs)
	}
}
