// Command polarbench regenerates every table and figure of the paper's
// evaluation (§V) plus the security case studies and the design-choice
// ablations.
//
// Usage:
//
//	polarbench [-reps n] [-trials n] [-fuzz n] [-only table1,fig6,...]
//	           [-seed n] [-parallel n] [-format text|csv] [-metrics]
//	           [-prom dir] [-trace-json file] [-layout-mode all|metadata|stateless]
//	           [-rekey-epoch n] [-pgo file] [-pgo-topk k]
//
// -pgo compiles every workload under a hot-site profile recorded by
// `polarun -pgo-record` (the fuser ranks superinstruction candidates by
// real dynamic weight); -pgo-topk bounds fusion to the K hottest runs
// (0 = all, negative = classic pairs only). Lowered code is a pure
// function of (module, profile, topK), so profiled builds stay
// byte-identical across reruns — the traces experiment gates that.
//
// Experiments: table1, table2, table3, table4, fig6, fig7, security,
// static, traces, seeding, ablation. Default runs all of them. seeding
// is the static IC-seeding differential (DESIGN.md §14): every workload
// compiles with and without the analysis-computed site classification,
// both arms run under one seed with execution traces attached, and the
// gate requires byte-identical traces plus a strict inline-cache miss
// reduction on at least three workloads. traces is the
// trace-level engine-differential suite: every workload runs hardened
// under the bytecode and legacy engines with a deterministic execution
// trace attached (DESIGN.md §11), the traces must be byte-identical,
// and -exectrace DIR keeps them for polartrace. The text format is what
// EXPERIMENTS.md records; csv is plotting-ready. -metrics appends a
// deterministic JSON metrics snapshot after each experiment's output
// (machine-readable companion to the tables). -prom additionally
// writes each experiment's snapshot as an OpenMetrics text exposition
// to <dir>/<experiment>.prom — scrape-ready files a Prometheus
// file-based collector (or promtool) can consume directly.
// -trace-json records the whole suite as one Chrome-trace timeline: an
// outer span per experiment with nested spans for each workload,
// kernel, CVE case and security scenario (load it in chrome://tracing
// or Perfetto).
//
// -parallel spreads each experiment's sub-steps over N workers
// (default GOMAXPROCS). Every sub-step runs under a seed derived from
// (-seed, task ID), so the non-timing experiments (table1, table3,
// table4, security) emit byte-identical output at any parallelism;
// the timing experiments keep each workload's repetitions pinned to
// one worker so min-of-N stays valid, but wall-clock numbers naturally
// vary run to run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"polar/internal/core"
	"polar/internal/evalrun"
	"polar/internal/telemetry"
	"polar/internal/telemetry/profile"
	"polar/internal/vm"
)

func main() {
	reps := flag.Int("reps", 5, "timing repetitions per configuration (interleaved min taken)")
	trials := flag.Int("trials", 200, "trials per security-scenario cell")
	fuzzIters := flag.Int("fuzz", 300, "fuzzing iterations per app for Table I")
	only := flag.String("only", "", "comma-separated subset of experiments")
	seed := flag.Int64("seed", 11, "experiment seed")
	parallel := flag.Int("parallel", 0, "experiment worker pool width (0 = GOMAXPROCS, 1 = serial)")
	format := flag.String("format", "text", "output format: text or csv")
	metrics := flag.Bool("metrics", false, "print a JSON metrics snapshot after each experiment")
	promDir := flag.String("prom", "", "write each experiment's OpenMetrics exposition to <dir>/<experiment>.prom")
	traceJSON := flag.String("trace-json", "", "write a Chrome trace-event timeline of the suite to this file")
	engine := flag.String("engine", "bytecode", "execution engine for every experiment: bytecode or legacy")
	exectraceDir := flag.String("exectrace", "", "traces experiment: also write each workload's per-engine execution trace to <dir>/<app>.<engine>.xt")
	layoutMode := flag.String("layout-mode", "all", "traces experiment: layout-resolution modes to gate — all, metadata or stateless")
	rekeyEpoch := flag.Int("rekey-epoch", 0, "stateless mode: advance the derivation epoch every n frees (0 disables)")
	pgoPath := flag.String("pgo", "", "compile every workload under this hot-site profile (JSON from polarun -pgo-record)")
	pgoTopK := flag.Int("pgo-topk", 0, "fuse only the K hottest candidate runs (0 = all, negative = classic pairs only)")
	flag.Parse()
	eng, err := vm.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polarbench:", err)
		os.Exit(2)
	}
	h := evalrun.Harness{
		Workers:    *parallel,
		Engine:     eng,
		Compile:    vm.CompileOpts{FusionTopK: *pgoTopK},
		RekeyEvery: *rekeyEpoch,
	}
	if *pgoPath != "" {
		if h.Compile.Profile, err = profile.ReadPGOFile(*pgoPath); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(2)
		}
	}
	var traceModes []core.LayoutMode
	if *layoutMode != "all" && *layoutMode != "" {
		m, err := core.ParseLayoutMode(*layoutMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(2)
		}
		traceModes = []core.LayoutMode{m}
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	csv := *format == "csv"
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "polarbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	// Explicit cleanup rather than defer: os.Exit on a failed run must
	// still leave a parseable trace behind.
	cleanup := func() {}
	if *traceJSON != "" {
		var err error
		if h.Tracer, cleanup, err = startTrace(*traceJSON); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(1)
		}
	}
	if *promDir != "" {
		if err := os.MkdirAll(*promDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(1)
		}
	}
	if *exectraceDir != "" {
		if err := os.MkdirAll(*exectraceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench:", err)
			os.Exit(1)
		}
	}
	err = run(h, sel, csv, emitConfig{json: *metrics, promDir: *promDir}, *reps, *trials, *fuzzIters, *seed, *exectraceDir, traceModes)
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "polarbench:", err)
		os.Exit(1)
	}
}

// startTrace opens a suite-wide tracer writing to path. The cleanup
// closes the JSON array, flushes and closes the file — in that order —
// so even an aborted suite leaves a parseable timeline.
func startTrace(path string) (*telemetry.Tracer, func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	tr := telemetry.NewTracer(bw)
	return tr, func() {
		if err := tr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench: closing trace:", err)
		}
		if err := bw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench: flushing trace:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "polarbench: closing trace file:", err)
		}
	}, nil
}

// emitConfig selects the machine-readable companions each experiment
// emits: the JSON snapshot on stdout (-metrics) and/or an OpenMetrics
// exposition file per experiment (-prom dir).
type emitConfig struct {
	json    bool
	promDir string
}

// emitMetrics renders one experiment's registry snapshot in the
// requested formats (no-op when neither -metrics nor -prom is set).
func emitMetrics(cfg emitConfig, name string, fill func(*telemetry.Registry)) error {
	if cfg.json {
		out, err := evalrun.SnapshotJSON(fill)
		if err != nil {
			return err
		}
		fmt.Printf("metrics[%s]:\n%s", name, out)
	}
	if cfg.promDir != "" {
		data, err := evalrun.SnapshotOpenMetrics(fill)
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.promDir, name+".prom")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func run(h evalrun.Harness, sel func(string) bool, csv bool, metrics emitConfig, reps, trials, fuzzIters int, seed int64, exectraceDir string, traceModes []core.LayoutMode) error {
	if sel("table1") {
		sp := h.Span("table1", "experiment")
		rows, err := h.TableI(fuzzIters, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTableI(rows))
		} else {
			fmt.Println(evalrun.RenderTableI(rows))
		}
		if err := emitMetrics(metrics, "table1", func(reg *telemetry.Registry) { evalrun.PublishTableI(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("fig6") {
		sp := h.Span("fig6", "experiment")
		rows, err := h.Figure6(reps, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVFigure6(rows))
		} else {
			fmt.Println(evalrun.RenderFigure6(rows))
		}
		if err := emitMetrics(metrics, "fig6", func(reg *telemetry.Registry) { evalrun.PublishFigure6(rows, reg) }); err != nil {
			return err
		}
	}
	var jsRows []evalrun.JSRow
	if sel("table2") || sel("fig7") {
		var err error
		sp := h.Span("fig7", "experiment")
		jsRows, err = h.Figure7(reps, seed)
		sp.End()
		if err != nil {
			return err
		}
	}
	if sel("table2") {
		agg := evalrun.TableII(jsRows)
		if csv {
			fmt.Print(evalrun.CSVTableII(agg))
		} else {
			fmt.Println(evalrun.RenderTableII(agg))
		}
		if err := emitMetrics(metrics, "table2", func(reg *telemetry.Registry) { evalrun.PublishTableII(agg, reg) }); err != nil {
			return err
		}
	}
	if sel("table3") {
		sp := h.Span("table3", "experiment")
		rows, err := h.TableIII(seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTableIII(rows))
		} else {
			fmt.Println(evalrun.RenderTableIII(rows))
		}
		if err := emitMetrics(metrics, "table3", func(reg *telemetry.Registry) { evalrun.PublishTableIII(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("table4") {
		sp := h.Span("table4", "experiment")
		rows, err := h.TableIV()
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTableIV(rows))
		} else {
			fmt.Println(evalrun.RenderTableIV(rows))
		}
		if err := emitMetrics(metrics, "table4", func(reg *telemetry.Registry) { evalrun.PublishTableIV(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("fig7") {
		if csv {
			fmt.Print(evalrun.CSVFigure7(jsRows))
		} else {
			fmt.Println(evalrun.RenderFigure7(jsRows))
		}
		if err := emitMetrics(metrics, "fig7", func(reg *telemetry.Registry) { evalrun.PublishFigure7(jsRows, reg) }); err != nil {
			return err
		}
	}
	if sel("security") {
		sp := h.Span("security", "experiment")
		rep, err := h.Security(trials, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVSecurity(rep))
		} else {
			fmt.Println(rep.Render())
		}
		if err := emitMetrics(metrics, "security", func(reg *telemetry.Registry) { evalrun.PublishSecurity(rep, reg) }); err != nil {
			return err
		}
	}
	if sel("static") {
		sp := h.Span("static", "experiment")
		rows, err := h.StaticTaint(fuzzIters, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVStaticTaint(rows))
		} else {
			fmt.Println(evalrun.RenderStaticTaint(rows))
		}
		if err := emitMetrics(metrics, "static", func(reg *telemetry.Registry) { evalrun.PublishStaticTaint(rows, reg) }); err != nil {
			return err
		}
	}
	if sel("traces") {
		sp := h.Span("traces", "experiment")
		rows, err := h.Traces(exectraceDir, seed, traceModes...)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVTraces(rows))
		} else {
			fmt.Println(evalrun.RenderTraces(rows))
		}
		if err := emitMetrics(metrics, "traces", func(reg *telemetry.Registry) { evalrun.PublishTraces(rows, reg) }); err != nil {
			return err
		}
		// The trace-level engine-differential contract is a hard gate:
		// byte-divergent traces mean the engines disagree about runtime
		// events, which no timing table should paper over.
		if evalrun.TracesDiverged(rows) {
			return fmt.Errorf("traces: engines diverged (see table above)")
		}
	}
	if sel("seeding") {
		sp := h.Span("seeding", "experiment")
		rows, err := h.Seeding(seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVSeeding(rows))
		} else {
			fmt.Println(evalrun.RenderSeeding(rows))
		}
		if err := emitMetrics(metrics, "seeding", func(reg *telemetry.Registry) { evalrun.PublishSeeding(rows, reg) }); err != nil {
			return err
		}
		// Hard gates, like the traces experiment: static seeding must be
		// observably invisible (byte-identical traces) and must actually
		// cut inline-cache misses on a share of the workloads.
		if v := evalrun.SeedingViolations(rows, 3); len(v) > 0 {
			return fmt.Errorf("seeding: %s", strings.Join(v, "; "))
		}
	}
	if sel("ablation") {
		sp := h.Span("ablation", "experiment")
		rows, err := h.Ablation(reps, seed)
		sp.End()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(evalrun.CSVAblation(rows))
		} else {
			fmt.Println(evalrun.RenderAblation(rows))
		}
		if err := emitMetrics(metrics, "ablation", func(reg *telemetry.Registry) { evalrun.PublishAblation(rows, reg) }); err != nil {
			return err
		}
	}
	return nil
}
