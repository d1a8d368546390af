package polar

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"polar/internal/ir"
	"polar/internal/vm"
	"polar/internal/workload"
)

// Engine benchmark pair: the same compiled program executed on the
// tree-walking reference engine and on the bytecode engine. 429.mcf is
// the member-access-bound app — the dispatch-dominated profile the
// bytecode engine targets.
//
// TestEngineSpeedup (run with POLAR_BENCH_ENGINES=1, as CI does) records
// the pair in BENCH_interp.json and enforces the ≥2.2× contract.

func enginePair(b *testing.B) (*vm.Program, *workload.Workload) {
	b.Helper()
	w, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Compile(ir.Clone(w.Module))
	if err != nil {
		b.Fatal(err)
	}
	return prog, w
}

func benchEngine(b *testing.B, e vm.Engine) {
	prog, w := enginePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := prog.NewInstance(vm.WithEngine(e), vm.WithInput(w.Input))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Run(w.Args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngines(b *testing.B) {
	b.Run("legacy", func(b *testing.B) { benchEngine(b, vm.EngineLegacy) })
	b.Run("bytecode", func(b *testing.B) { benchEngine(b, vm.EngineBytecode) })
}

// benchRecord is one benchstat-style row of BENCH_interp.json.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// TestEngineSpeedup measures both engines under the testing.Benchmark
// harness, writes BENCH_interp.json, and fails unless the bytecode
// engine is at least 2.2× faster than the tree-walker (the fused
// superinstruction + operand-file lowering holds ~2.6-3.2× here; the
// floor leaves headroom for loaded CI machines). Gated behind
// POLAR_BENCH_ENGINES because it is a timing test: meaningless under
// -race or on a loaded machine.
func TestEngineSpeedup(t *testing.T) {
	if os.Getenv("POLAR_BENCH_ENGINES") == "" {
		t.Skip("set POLAR_BENCH_ENGINES=1 to run the engine speedup gate")
	}
	measure := func(e vm.Engine) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			benchEngine(b, e)
		})
	}
	legacy := measure(vm.EngineLegacy)
	bytecode := measure(vm.EngineBytecode)
	speedup := float64(legacy.NsPerOp()) / float64(bytecode.NsPerOp())

	report := struct {
		Benchmarks []benchRecord `json:"benchmarks"`
		Speedup    float64       `json:"speedup_bytecode_vs_legacy"`
	}{
		Benchmarks: []benchRecord{
			{"BenchmarkEngines/legacy", float64(legacy.NsPerOp()), legacy.AllocsPerOp(), legacy.N},
			{"BenchmarkEngines/bytecode", float64(bytecode.NsPerOp()), bytecode.AllocsPerOp(), bytecode.N},
		},
		Speedup: speedup,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_interp.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("legacy %v/op, bytecode %v/op, speedup %.2fx",
		legacy.NsPerOp(), bytecode.NsPerOp(), speedup)
	fmt.Printf("engine speedup: %.2fx (legacy %d ns/op, bytecode %d ns/op)\n",
		speedup, legacy.NsPerOp(), bytecode.NsPerOp())
	if speedup < 2.2 {
		t.Fatalf("bytecode engine %.2fx faster than legacy, want >= 2.2x", speedup)
	}
}
