package polar

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"polar/internal/classinfo"
	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
)

// Inline layout-cache invalidation: the per-call-site caches at
// olr_getptr sites validate against the runtime's layout generation,
// and every event that can move a member — free, re-allocation over a
// reused address, an explicit Rerandomize, a stateless rekey epoch —
// bumps it. These tests drive each invalidation source mid-run, in both
// layout modes, and pin the contract that a cached offset is never
// served stale: the program computes through resolved member addresses,
// so a single stale hit after a remap corrupts the checksum.

// icChurnModule: an object accessed through four distinct olr_getptr
// sites inside a nested loop, with an alloc/free churn pair per outer
// iteration (bumps the layout generation and drives any RekeyEvery
// schedule) and, when rerandEvery > 0, an explicit mid-run rerandomize
// via the rt_rerand_now test builtin. The inner loop re-executes the
// same sites eight times per outer pass, so the caches see real hits
// between invalidations. Returns sum over i<n, j<8 of (i+j+3).
func icChurnModule(t *testing.T, rerandEvery int64) *ir.Module {
	t.Helper()
	m := ir.NewModule("icchurn")
	st := m.MustStruct(ir.NewStruct("Node",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I64},
	))
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	sum := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), sum)
	node := b.Alloc(st)
	b.CountedLoop("outer", b.ParamReg(0), func(i ir.Value) {
		b.Store(ir.I64, i, b.FieldPtr(st, node, 0))
		b.CountedLoop("inner", ir.Const(8), func(j ir.Value) {
			av := b.Load(ir.I64, b.FieldPtr(st, node, 0))
			b.Store(ir.I64, b.Bin(ir.BinAdd, av, b.Bin(ir.BinAdd, j, ir.Const(3))), b.FieldPtr(st, node, 1))
			bv := b.Load(ir.I64, b.FieldPtr(st, node, 1))
			b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, sum), bv), sum)
		})
		scratch := b.Alloc(st)
		b.Free(scratch)
		if rerandEvery > 0 {
			hit := b.Cmp(ir.CmpEq, b.Bin(ir.BinRem, i, ir.Const(rerandEvery)), ir.Const(rerandEvery-1))
			b.If("rr", hit, func() { b.CallVoid("rt_rerand_now") }, nil)
		}
	})
	b.Free(node)
	b.Ret(b.Load(ir.I64, sum))
	return m
}

// icChurnExpected is the checksum icChurnModule must return for n outer
// iterations, independent of engine, layout mode or remap schedule.
func icChurnExpected(n int64) int64 {
	return 4*n*(n-1) + 52*n
}

// icChurnSetup instruments the module once; every run shares the one
// compiled Program (the caches live per instance, the site numbering
// per Program).
type icChurnSetup struct {
	prog  *vm.Program
	table *classinfo.Table
}

func newICChurnSetup(t *testing.T, rerandEvery int64) icChurnSetup {
	t.Helper()
	ins, err := instrument.Apply(icChurnModule(t, rerandEvery), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Rewrites.FieldPtrs == 0 {
		t.Fatal("instrumentation rewrote no member accesses")
	}
	prog, err := vm.Compile(ins.Module)
	if err != nil {
		t.Fatal(err)
	}
	return icChurnSetup{prog: prog, table: ins.Table}
}

// runICChurn executes one hardened run and returns its execution
// trace. rt_rerand_now is bound to Runtime.Rerandomize on this
// instance, so the module can force a rekey from inside the
// interpreted program.
func runICChurn(t *testing.T, s icChurnSetup, e vm.Engine, mode core.LayoutMode, rekeyEvery int, seed, n int64) (*vm.VM, *core.Runtime, int64, []byte) {
	t.Helper()
	tel := telemetry.New()
	var trace bytes.Buffer
	xw := exectrace.NewWriter(&trace)
	v, err := s.prog.NewInstance(vm.WithEngine(e), vm.WithTelemetry(tel), vm.WithExecTrace(xw))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(seed)
	cfg.LayoutMode = mode
	cfg.RekeyEvery = rekeyEvery
	cfg.Telemetry = tel
	cfg.ExecTrace = xw
	rt := core.New(s.table, cfg)
	rt.Attach(v)
	v.RegisterBuiltin("rt_rerand_now", func(c *vm.Call) (int64, error) {
		_, err := rt.Rerandomize(v)
		return 0, err
	})
	got, err := v.Run(n)
	if err != nil {
		t.Fatalf("%v/%v: %v", e, mode, err)
	}
	if err := xw.Close(); err != nil {
		t.Fatal(err)
	}
	return v, rt, got, trace.Bytes()
}

// TestInlineCacheInvalidationMidRun drives every generation-bump source
// in both layout modes and checks, per cell: the checksum is exact (no
// stale offset was ever served), the caches were genuinely exercised
// (hits > 0) and genuinely invalidated (at least one miss per churned
// outer iteration), every olr_getptr resolution was counted as a hit or
// a miss, and the bytecode run's execution trace is byte-identical to
// the tree-walker's. The tree-walker has no inline caches (its Perf
// reads zero), so every resolution it records came from the resolver
// itself: trace identity shows that each served hit replayed exactly
// what the resolver would have done.
func TestInlineCacheInvalidationMidRun(t *testing.T) {
	const n = 24
	cases := []struct {
		name        string
		mode        core.LayoutMode
		rekeyEvery  int
		rerandEvery int64
	}{
		{"metadata-free-churn", core.LayoutModeMetadata, 0, 0},
		{"metadata-explicit-rerand", core.LayoutModeMetadata, 0, 4},
		{"stateless-free-churn", core.LayoutModeStateless, 0, 0},
		{"stateless-rekey-epoch", core.LayoutModeStateless, 3, 0},
		{"stateless-explicit-rerand", core.LayoutModeStateless, 0, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := newICChurnSetup(t, tc.rerandEvery)
			vb, rtb, gb, xb := runICChurn(t, s, vm.EngineBytecode, tc.mode, tc.rekeyEvery, 7, n)
			vl, rtl, gl, xl := runICChurn(t, s, vm.EngineLegacy, tc.mode, tc.rekeyEvery, 7, n)
			if want := icChurnExpected(n); gb != want || gl != want {
				t.Fatalf("checksum: bytecode=%d legacy=%d want=%d — a stale cached offset leaked", gb, gl, want)
			}
			if vb.Stats != vl.Stats {
				t.Fatalf("stats differ:\nbytecode %+v\nlegacy   %+v", vb.Stats, vl.Stats)
			}
			if !reflect.DeepEqual(rtb.Stats(), rtl.Stats()) {
				t.Fatalf("runtime stats differ:\nbytecode %+v\nlegacy   %+v", rtb.Stats(), rtl.Stats())
			}
			if len(rtb.ViolationRecords()) != 0 {
				t.Fatalf("violations: %+v", rtb.ViolationRecords())
			}
			if !bytes.Equal(xb, xl) {
				tb, errB := exectrace.Read(bytes.NewReader(xb))
				tl, errL := exectrace.Read(bytes.NewReader(xl))
				if errB != nil || errL != nil {
					t.Fatalf("traces differ and do not decode: %v / %v", errB, errL)
				}
				if d := exectrace.Diff(tb, tl); d != nil {
					t.Fatalf("engine traces diverge:\n%s", d.Format("bytecode", "legacy"))
				}
				t.Fatal("engine traces byte-differ but records match (encoding drift)")
			}
			if vl.Perf != (vm.Perf{}) {
				t.Fatalf("tree-walker Perf = %+v, want zero (it has no inline caches)", vl.Perf)
			}
			// Per outer iteration: 1 site-a store + 8×(load a, store b,
			// load b) = 25 resolutions, all through the cache protocol.
			perf := vb.Perf
			if got, want := perf.InlineHits+perf.InlineMisses, uint64(25*n); got != want {
				t.Fatalf("hits+misses = %d, want %d (every olr_getptr must consult the cache)", got, want)
			}
			if perf.InlineHits == 0 {
				t.Fatal("no inline-cache hits — the inner loop never reused a cached offset")
			}
			// The churn free bumps the generation every outer iteration,
			// so each of the four sites must re-validate at least once per
			// iteration after the first.
			if perf.InlineMisses < n {
				t.Fatalf("only %d misses over %d invalidating iterations — generation bumps not reaching the cache", perf.InlineMisses, n)
			}
		})
	}
}

// TestInlineCacheConcurrentInstances is the stress half of the
// satellite: many goroutines share ONE compiled Program, each with its
// own VM instance and runtime (distinct seeds, both layout modes, rekey
// schedules on and off), all churning layouts mid-run. Cache slots are
// per instance and the generation pointer per runtime, so under -race
// this pins that the shared Program stays read-only while every run
// still checksums exactly.
func TestInlineCacheConcurrentInstances(t *testing.T) {
	const n, workers, runsPer = 16, 8, 3
	s := newICChurnSetup(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, workers*runsPer)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsPer; r++ {
				mode := core.LayoutModeMetadata
				rekey := 0
				if w%2 == 1 {
					mode = core.LayoutModeStateless
					rekey = (r % 2) * 3
				}
				// Errors funnel out; t.Fatal is not goroutine-safe.
				v, _, got, _ := runICChurn(t, s, vm.EngineBytecode, mode, rekey, int64(w*runsPer+r+1), n)
				if want := icChurnExpected(n); got != want {
					errs <- fmt.Errorf("worker %d run %d (%v rekey=%d): checksum %d, want %d — stale cached offset", w, r, mode, rekey, got, want)
					continue
				}
				if v.Perf.InlineHits == 0 {
					errs <- fmt.Errorf("worker %d run %d: zero inline-cache hits", w, r)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
