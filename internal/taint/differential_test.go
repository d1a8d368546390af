package taint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polar/internal/fuzz"
	"polar/internal/ir"
	"polar/internal/race"
	"polar/internal/vm"
	"polar/internal/workload"
)

// The taint engine runs on the bytecode engine's hooked lowering. These
// tests hold that to the tree-walker, the reference oracle: on every
// input, both engines must fire the same Hooks event stream and build
// the same Report.

// streamHash forwards every event to the taint engine and folds it into
// an FNV-1a digest, so a long stream is compared without being stored.
type streamHash struct {
	next   *Engine
	h      uint64
	events uint64
}

func (s *streamHash) mix(kind uint64, xs ...uint64) {
	s.events++
	s.h = (s.h ^ kind) * 1099511628211
	for _, x := range xs {
		s.h = (s.h ^ x) * 1099511628211
	}
}

func i32s(xs []int32) uint64 {
	h := uint64(len(xs))
	for _, x := range xs {
		h = h*31 + uint64(uint32(x))
	}
	return h
}

func strHash(s string) uint64 {
	h := uint64(len(s))
	for i := 0; i < len(s); i++ {
		h = h*31 + uint64(s[i])
	}
	return h
}

func (s *streamHash) Enter(fn *ir.Func, args []int32) {
	s.mix(1, strHash(fn.Name), i32s(args))
	s.next.Enter(fn, args)
}
func (s *streamHash) Exit(ret int32, callerDest int) {
	s.mix(2, uint64(ret), uint64(callerDest))
	s.next.Exit(ret, callerDest)
}
func (s *streamHash) Load(dest int, addr uint64, size int) {
	s.mix(3, uint64(dest), addr, uint64(size))
	s.next.Load(dest, addr, size)
}
func (s *streamHash) Store(src int32, addr uint64, size int) {
	s.mix(4, uint64(src), addr, uint64(size))
	s.next.Store(src, addr, size)
}
func (s *streamHash) Bin(dest int, a, b int32) {
	s.mix(5, uint64(dest), uint64(a), uint64(b))
	s.next.Bin(dest, a, b)
}
func (s *streamHash) Un(dest int, a int32) {
	s.mix(6, uint64(dest), uint64(a))
	s.next.Un(dest, a)
}
func (s *streamHash) PtrDerive(dest int, base int32) {
	s.mix(7, uint64(dest), uint64(base))
	s.next.PtrDerive(dest, base)
}
func (s *streamHash) Memcpy(dst, src uint64, n int) {
	s.mix(8, dst, src, uint64(n))
	s.next.Memcpy(dst, src, n)
}
func (s *streamHash) Memset(dst uint64, n int) {
	s.mix(9, dst, uint64(n))
	s.next.Memset(dst, n)
}
func (s *streamHash) CondBr(cond int32) {
	s.mix(10, uint64(cond))
	s.next.CondBr(cond)
}
func (s *streamHash) Alloc(dest int, addr uint64, size int, st *ir.StructType) {
	s.mix(11, uint64(dest), addr, uint64(size), strHash(stName(st)))
	s.next.Alloc(dest, addr, size, st)
}
func (s *streamHash) Free(addr uint64, st *ir.StructType) {
	s.mix(12, addr, strHash(stName(st)))
	s.next.Free(addr, st)
}
func (s *streamHash) Builtin(name string, args []int32, argVals []int64, ret int64, dest int) {
	vals := uint64(len(argVals))
	for _, x := range argVals {
		vals = vals*31 + uint64(x)
	}
	s.mix(13, strHash(name), i32s(args), vals, uint64(ret), uint64(dest))
	s.next.Builtin(name, args, argVals, ret, dest)
}

func stName(st *ir.StructType) string {
	if st == nil {
		return ""
	}
	return st.Name
}

// taintRun is the outcome of one corpus on one engine.
type taintRun struct {
	rep    *Report
	hash   uint64
	events uint64
	errs   []string
}

// analyzeOn runs the corpus like Analyze, on engine e, with every run
// under one streamHash.
func analyzeOn(t *testing.T, p *vm.Program, corpus [][]byte, args []int64, fuel uint64, e vm.Engine) taintRun {
	t.Helper()
	out := taintRun{rep: NewReport()}
	s := &streamHash{h: 14695981039346656037}
	for _, input := range corpus {
		s.next = NewEngine(out.rep)
		opts := []vm.Option{vm.WithInput(input), vm.WithHooks(s), vm.WithEngine(e)}
		if fuel > 0 {
			opts = append(opts, vm.WithFuel(fuel))
		}
		v, err := p.NewInstance(opts...)
		if err != nil {
			t.Fatal(err)
		}
		s.next.Bind(v)
		if _, err := v.Run(args...); err != nil {
			out.errs = append(out.errs, err.Error())
		}
	}
	out.hash, out.events = s.h, s.events
	return out
}

// checkEngines compiles m once and requires identical streams, reports
// and run errors from both engines; it returns the bytecode run.
func checkEngines(t *testing.T, m *ir.Module, corpus [][]byte, args []int64, fuel uint64) taintRun {
	t.Helper()
	p, err := vm.Compile(ir.Clone(m))
	if err != nil {
		t.Fatal(err)
	}
	b := analyzeOn(t, p, corpus, args, fuel, vm.EngineBytecode)
	l := analyzeOn(t, p, corpus, args, fuel, vm.EngineLegacy)
	if b.events != l.events || b.hash != l.hash {
		t.Fatalf("event streams differ: bytecode %d events (%#x), legacy %d (%#x)", b.events, b.hash, l.events, l.hash)
	}
	if !reflect.DeepEqual(b.errs, l.errs) {
		t.Fatalf("run errors differ:\nbytecode %q\nlegacy   %q", b.errs, l.errs)
	}
	if !reflect.DeepEqual(b.rep.objects, l.rep.objects) {
		t.Fatalf("reports differ:\nbytecode\n%s\nlegacy\n%s", b.rep, l.rep)
	}
	return b
}

// thin keeps every fourth case of a sweep under the race detector,
// which runs the sweep about ten times slower and needs only some of
// it; the plain test run covers every case.
func thin[T any](all []T) []T {
	if !race.Enabled {
		return all
	}
	var out []T
	for i := 0; i < len(all); i += 4 {
		out = append(out, all[i])
	}
	return out
}

func TestTaintEnginesAgreeOnWorkloads(t *testing.T) {
	for _, w := range thin(workload.All()) {
		t.Run(w.Name, func(t *testing.T) {
			r := checkEngines(t, w.Module, [][]byte{w.Input}, w.Args, 0)
			if r.events == 0 || len(r.errs) != 0 {
				t.Fatalf("%d events, errors %q", r.events, r.errs)
			}
		})
	}
}

func TestTaintEnginesAgreeOnCaseStudies(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "casestudies", "*.ir"))
	if err != nil || len(paths) != 7 {
		t.Fatalf("case studies: %d files, %v", len(paths), err)
	}
	corpus := [][]byte{nil, []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), {0xff, 0x10, 0, 3, 0x7f, 1, 2, 3}}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ir.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			var args []int64
			if main := m.Func("main"); main != nil {
				for i := range main.Params {
					args = append(args, int64(16*(i+1)))
				}
			}
			if r := checkEngines(t, m, corpus, args, 0); r.events == 0 {
				t.Fatal("no events")
			}
		})
	}
}

// TestTaintEnginesAgreeOnFuzzCorpora runs the policy workload's
// programs on seeded 6-step fuzz corpora, crashers included — the
// inputs the Fig. 3 pipeline feeds to dynamic taint.
func TestTaintEnginesAgreeOnFuzzCorpora(t *testing.T) {
	for _, name := range thin([]string{"401.bzip2", "458.sjeng", "473.astar", "libpng-1.6.34", "libjpeg-turbo-1.5.2", "chakracore-1.10"}) {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 32} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				fr, err := fuzz.Run(ir.Clone(w.Module), [][]byte{w.Input}, fuzz.Config{
					Iterations: 6, MaxInputLen: 4096, Seed: seed, Fuel: 30_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				corpus := append([][]byte{w.Input}, fr.Corpus...)
				corpus = append(corpus, fr.Crashers...)
				checkEngines(t, w.Module, corpus, w.Args, 0)
			})
		}
	}
}

// TestTaintEnginesAgreeUnderFuel sweeps every fuel value over the small
// taint module and cuts one workload off at several points: the stream
// and the report stay identical wherever a run stops.
func TestTaintEnginesAgreeUnderFuel(t *testing.T) {
	m := buildTaintModule()
	corpus := [][]byte{{200, 1, 2, 3}, {50, 0, 0, 0}}
	full := checkEngines(t, m, corpus[:1], nil, 0)
	if len(full.errs) != 0 {
		t.Fatal(full.errs)
	}
	const past = 200
	for fuel := uint64(1); fuel < past; fuel++ {
		checkEngines(t, m, corpus, nil, fuel)
	}
	if r := checkEngines(t, m, corpus, nil, past); len(r.errs) != 0 {
		t.Fatalf("the sweep stops before the module ends: %q", r.errs)
	}

	w, err := workload.ByName("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := vm.Compile(ir.Clone(w.Module))
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.NewInstance(vm.WithInput(w.Input))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(w.Args...); err != nil {
		t.Fatal(err)
	}
	total := v.Stats.Instructions
	for _, fuel := range thin([]uint64{1, 97, total / 7, total / 3, total / 2, total - 1}) {
		r := checkEngines(t, w.Module, [][]byte{w.Input}, w.Args, fuel)
		if len(r.errs) != 1 || !strings.Contains(r.errs[0], vm.ErrFuelExhausted.Error()) {
			t.Fatalf("fuel %d of %d: errors %q, want fuel exhaustion", fuel, total, r.errs)
		}
	}
}
