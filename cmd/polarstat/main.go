// Command polarstat prints static statistics for an IR module or a
// built-in workload: per-class randomization entropy and
// instrumentation surface, function sizes and the opcode mix.
//
// Usage:
//
//	polarstat program.ir
//	polarstat -workload 458.sjeng
//	polarstat -json program.ir
//	polarstat -lowered -workload 429.mcf
//	polarstat -exec program.ir
//
// -json emits the same report as deterministic JSON for scripts and CI.
//
// -lowered appends the lowered-bytecode section: per-function dispatch
// counts vs. source instructions, fused superinstruction runs and their
// micro-op totals, inline layout-cache sites and the operand-file width
// after register allocation, plus the program fingerprint the
// PGO-determinism gate pins (DESIGN.md §13). -pgo FILE/-pgo-topk K
// compile under a recorded hot-site profile (polarun -pgo-record), the
// same flags polarun and polarbench take; the CI determinism gate runs
// polarstat -lowered -pgo twice and compares fingerprints across
// processes.
//
// -exec hardens the program in-process, runs it once on the bytecode
// engine, and reports the engine performance counters
// (vm.inline_cache.hits, vm.inline_cache.misses, vm.fused_dispatches
// and the derived inline-cache hit rate).
package main

import (
	"flag"
	"fmt"
	"os"

	"polar"
	"polar/internal/irstat"
	"polar/internal/layout"
	"polar/internal/workload"
)

func main() {
	wl := flag.String("workload", "", "analyze a built-in workload by name")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	lowered := flag.Bool("lowered", false, "append the lowered-bytecode section (fused runs, inline-cache sites, operand regs, fingerprint)")
	exec := flag.Bool("exec", false, "harden and run the program once, reporting vm.inline_cache.{hits,misses} and vm.fused_dispatches")
	seed := flag.Int64("seed", 1, "randomization seed for -exec")
	pgoPath := flag.String("pgo", "", "compile under a recorded hot-site profile (JSON from polarun -pgo-record)")
	pgoTopK := flag.Int("pgo-topk", 0, "fuse only the K hottest candidate runs (0 = all, <0 = classic pairs only)")
	flag.Parse()
	var prof *polar.PGOProfile
	if *pgoPath != "" {
		var err error
		if prof, err = polar.ReadPGOFile(*pgoPath); err != nil {
			fmt.Fprintln(os.Stderr, "polarstat:", err)
			os.Exit(1)
		}
	}
	pgo := polar.WithPGO(prof, *pgoTopK)
	if err := run(*wl, *jsonOut, *lowered, *exec, *seed, pgo); err != nil {
		fmt.Fprintln(os.Stderr, "polarstat:", err)
		os.Exit(1)
	}
}

func run(wl string, jsonOut, lowered, exec bool, seed int64, pgo polar.Option) error {
	var m *polar.Module
	var w *workload.Workload
	switch {
	case wl != "":
		var err error
		if w, err = workload.ByName(wl); err != nil {
			return err
		}
		m = w.Module
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		if m, err = polar.Parse(string(src)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("give -workload NAME or an IR file")
	}
	stats := irstat.Analyze(m, layout.DefaultConfig())
	if jsonOut {
		data, err := stats.EncodeJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(stats.Render())
	}
	if lowered {
		if err := printLowered(m, pgo); err != nil {
			return err
		}
	}
	if exec {
		if err := runOnce(m, w, seed, pgo); err != nil {
			return err
		}
	}
	return nil
}

// printLowered compiles the module under the -pgo options and renders
// the per-function lowering summary.
func printLowered(m *polar.Module, pgo polar.Option) error {
	prep, err := polar.Prepare(m, pgo)
	if err != nil {
		return err
	}
	fmt.Printf("\nlowered bytecode (fingerprint %016x)\n", prep.Fingerprint())
	fmt.Printf("%-20s %8s %10s %6s %7s %8s %4s %8s\n",
		"function", "source", "dispatches", "fused", "micros", "classic", "ic", "regs")
	for _, fs := range prep.LoweredStats() {
		fmt.Printf("%-20s %8d %10d %6d %7d %8d %4d %8s\n",
			fs.Name, fs.SourceInstrs, fs.Dispatches, fs.FusedRuns, fs.FusedMicros,
			fs.ClassicPairs, fs.ICSites, fmt.Sprintf("%d/%d", fs.OperandRegs, fs.SourceRegs))
	}
	return nil
}

// runOnce hardens the module, executes it once and prints the engine
// performance counters under their registry names.
func runOnce(m *polar.Module, w *workload.Workload, seed int64, pgo polar.Option) error {
	h, err := polar.Harden(m, nil)
	if err != nil {
		return err
	}
	opts := []polar.Option{polar.WithSeed(seed), pgo}
	if w != nil {
		opts = append(opts, polar.WithInput(w.Input), polar.WithArgs(w.Args...))
	}
	res, err := polar.RunHardened(h, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("\nengine performance counters (one hardened run, seed %d)\n", seed)
	fmt.Printf("  %-28s %d\n", "vm.inline_cache.hits", res.Perf.InlineHits)
	fmt.Printf("  %-28s %d\n", "vm.inline_cache.misses", res.Perf.InlineMisses)
	fmt.Printf("  %-28s %d\n", "vm.fused_dispatches", res.Perf.FusedDispatches)
	fmt.Printf("  %-28s %.1f%%\n", "inline-cache hit rate", 100*res.Perf.HitRate())
	return nil
}
