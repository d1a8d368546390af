package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"polar"
	"polar/internal/classinfo"
	"polar/internal/heap"
	"polar/internal/ir"
	"polar/internal/layout"
)

// microOps is the iteration count of every micro program.
const microOps = 20_000

// microModule builds a small program whose @main repeats one runtime
// operation microOps times on the class MicroObj:
//
//	getptr     member loads through a site whose receiver alternates
//	           between two objects, so the inline cache misses
//	malloc     allocations kept live in a table
//	mallocfree the same allocations, then a second loop freeing them
//	memcpy     whole-object copies between two objects
func microModule(op string) *ir.Module {
	m := ir.NewModule("micro-" + op)
	st := m.MustStruct(ir.NewStruct("MicroObj",
		ir.Field{Name: "vt", Type: ir.Fptr},
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "b", Type: ir.I32},
		ir.Field{Name: "c", Type: ir.I64},
		ir.Field{Name: "d", Type: ir.I16},
	))
	if _, err := m.AddGlobal("tab", 8*microOps, nil); err != nil {
		panic(err)
	}
	b := ir.NewFunc(m, "main", ir.I64)
	acc := b.Local(ir.I64)
	b.Store(ir.I64, ir.Const(0), acc)
	slot := func(i ir.Value) ir.Value { return b.ElemPtr(ir.I64, ir.Global("tab"), i) }
	n := ir.Const(microOps)
	switch op {
	case "getptr":
		for i := int64(0); i < 2; i++ {
			p := b.Alloc(st)
			b.Store(ir.I64, ir.Const(i+1), b.FieldPtr(st, p, 1))
			b.Store(ir.I64, p, slot(ir.Const(i)))
		}
		b.CountedLoop("get", n, func(i ir.Value) {
			p := b.Load(ir.PtrTo(st), slot(b.Bin(ir.BinAnd, i, ir.Const(1))))
			v := b.Load(ir.I64, b.FieldPtr(st, p, 1))
			b.Store(ir.I64, b.Bin(ir.BinAdd, b.Load(ir.I64, acc), v), acc)
		})
	case "malloc", "mallocfree":
		b.CountedLoop("alloc", n, func(i ir.Value) {
			b.Store(ir.I64, b.Alloc(st), slot(i))
		})
		if op == "mallocfree" {
			b.CountedLoop("free", n, func(i ir.Value) {
				b.Free(b.Load(ir.PtrTo(st), slot(i)))
			})
		}
	case "memcpy":
		src, dst := b.Alloc(st), b.Alloc(st)
		b.Store(ir.I64, ir.Const(7), b.FieldPtr(st, src, 1))
		b.CountedLoop("copy", n, func(i ir.Value) {
			b.Memcpy(dst, src, ir.Const(int64(st.Size())))
		})
		b.Store(ir.I64, b.Load(ir.I64, b.FieldPtr(st, dst, 1)), acc)
	default:
		panic("unknown micro op " + op)
	}
	b.Ret(b.Load(ir.I64, acc))
	return m
}

// microPair is a micro program compiled plain and hardened.
type microPair struct {
	base, hard *polar.Prepared
}

func prepareMicro(op string) (microPair, error) {
	m := microModule(op)
	base, err := polar.Prepare(m)
	if err != nil {
		return microPair{}, fmt.Errorf("micro %s: %w", op, err)
	}
	h, err := polar.Harden(m, []string{"MicroObj"})
	if err != nil {
		return microPair{}, fmt.Errorf("micro %s: %w", op, err)
	}
	hard, err := polar.PrepareHardened(h)
	if err != nil {
		return microPair{}, fmt.Errorf("micro %s: %w", op, err)
	}
	return microPair{base: base, hard: hard}, nil
}

func timeRun(p *polar.Prepared, opts ...polar.Option) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	_, err := p.Run(opts...)
	return time.Since(start), err
}

// microCosts measures the per-operation cost of each olr_* runtime call
// as the hardened run's time minus the plain run's, over microOps
// operations; each cost is the median over interleaved rounds. Keys:
// getptr.metadata, getptr.stateless, malloc, free, memcpy (ns).
func microCosts(budget time.Duration) (map[string]float64, error) {
	ops := []string{"getptr", "malloc", "mallocfree", "memcpy"}
	pairs := map[string]microPair{}
	for _, op := range ops {
		mp, err := prepareMicro(op)
		if err != nil {
			return nil, err
		}
		pairs[op] = mp
	}
	type cell struct {
		op   string
		mode polar.LayoutMode
		key  string
	}
	cells := []cell{
		{"getptr", polar.LayoutModeMetadata, "getptr.metadata"},
		{"getptr", polar.LayoutModeStateless, "getptr.stateless"},
		{"malloc", polar.LayoutModeMetadata, "malloc"},
		{"mallocfree", polar.LayoutModeMetadata, "mallocfree"},
		{"memcpy", polar.LayoutModeMetadata, "memcpy"},
	}
	diffs := map[string][]float64{}
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		for _, c := range cells {
			mp := pairs[c.op]
			base, err := timeRun(mp.base)
			if err != nil {
				return nil, fmt.Errorf("micro %s baseline: %w", c.op, err)
			}
			hard, err := timeRun(mp.hard, polar.WithSeed(int64(round+1)), polar.WithLayoutMode(c.mode))
			if err != nil {
				return nil, fmt.Errorf("micro %s %s: %w", c.op, c.mode, err)
			}
			diffs[c.key] = append(diffs[c.key], float64((hard-base).Nanoseconds())/microOps)
		}
	}
	out := map[string]float64{}
	for k, v := range diffs {
		out[k] = median(v)
	}
	out["free"] = out["mallocfree"] - out["malloc"]
	delete(out, "mallocfree")
	return out, nil
}

// classFields returns the layout-generator inputs of the classes the
// workload hardens.
func classFields(progs []*program) ([][]layout.FieldInfo, error) {
	var out [][]layout.FieldInfo
	for _, p := range progs {
		tab, err := classinfo.FromModule(p.w.Module, p.w.ExpectedTainted)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.w.Name, err)
		}
		for _, cls := range tab.Classes() {
			fs := make([]layout.FieldInfo, len(cls.Members))
			for i, mb := range cls.Members {
				fs[i] = layout.FieldInfo{Size: mb.Size, Align: mb.Align, IsFptr: mb.Kind == classinfo.KindFuncPointer}
			}
			out = append(out, fs)
		}
	}
	return out, nil
}

// layoutCosts times layout.Generate and layout.GenerateKeyed over the
// workload's own classes, in ns per layout.
func layoutCosts(classes [][]layout.FieldInfo, seed int64) (gen, keyed float64, err error) {
	const n = 20_000
	cfg := layout.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := layout.Generate(classes[i%len(classes)], cfg, rng); err != nil {
			return 0, 0, err
		}
	}
	gen = float64(time.Since(start).Nanoseconds()) / n
	runtime.GC()
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := layout.GenerateKeyed(classes[i%len(classes)], cfg, uint64(seed), 0x5bd1e995, uint64(i)<<4); err != nil {
			return 0, 0, err
		}
	}
	keyed = float64(time.Since(start).Nanoseconds()) / n
	return gen, keyed, nil
}

// heapCost replays the workload's object-size mix (each class's largest
// randomized size) through a fresh heap.Allocator in batches of 32
// allocations followed by their frees, in ns per alloc+free pair.
func heapCost(classes [][]layout.FieldInfo) (float64, error) {
	const n, batch = 32_000, 32
	cfg := layout.DefaultConfig()
	sizes := make([]int, len(classes))
	for i, fs := range classes {
		sizes[i] = layout.MaxSize(fs, cfg)
	}
	a := heap.New(0x1000_0000, 1<<30)
	addrs := make([]uint64, batch)
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i += batch {
		for k := range addrs {
			addr, err := a.Alloc(sizes[(i+k)%len(sizes)])
			if err != nil {
				return 0, err
			}
			addrs[k] = addr
		}
		for _, addr := range addrs {
			if err := a.Free(addr); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n, nil
}
