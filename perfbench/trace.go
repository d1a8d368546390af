package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"polar"
	"polar/internal/analysis"
)

// counts holds exact per-pass operation counts, keyed by metric name.
type counts map[string]float64

// countNames are the count metrics the exact-count gate compares.
var countNames = []string{
	"vm.instructions", "vm.calls", "vm.fused_dispatches", "vm.ic_hits", "vm.ic_misses",
	"core.cache_hits", "core.cache_misses", "core.meta_probes", "core.member_access",
	"core.allocs", "core.frees", "core.memcpys",
	"layout.generated", "layout.unique", "layout.shared",
	"heap.allocs", "heap.reuses", "heap.fresh_carves",
	"telemetry.events", "exectrace.records", "flight.events_seen", "flight.dropped",
	"baseline.instructions",
	"fuzz.execs", "fuzz.edges", "taint.classes",
}

// progCounts is the per-program row of the traced report.
type progCounts struct {
	instructions, allocs, frees, memcpys, access, icHits, icMisses uint64
}

// policySteps accumulates the time of each policy-pipeline step.
type policySteps map[string]time.Duration

// tracedPolicy runs the Fig. 3 pipeline step by step, with a span
// around each public call (FuzzForCoverage, AnalyzeTaint, Harden with
// TuneFromTaint, analysis.Analyze), adds the steps' counts to c and
// returns the summed span time.
func tracedPolicy(p *program, s spec, tl *tally, steps policySteps, c counts) time.Duration {
	m := p.w.Module
	seeds := [][]byte{p.input}
	var total time.Duration
	span := func(name string, f func()) {
		start := time.Now()
		f()
		d := time.Since(start)
		steps[name] += d
		total += d
	}
	fr := &polar.FuzzResult{}
	var rep *polar.TaintReport
	var static *analysis.Result
	var err error
	// Like SelectAndHarden, a zero-length campaign is skipped (the fuzzer
	// would substitute its default length).
	if iters := s.fuzzItersFor(p); iters > 0 {
		span("fuzz", func() { fr, err = polar.FuzzForCoverage(m, seeds, iters, p.fuzzSeed) })
	}
	if err == nil {
		corpus := append(append(append([][]byte(nil), seeds...), fr.Corpus...), fr.Crashers...)
		span("taint", func() { rep, err = polar.AnalyzeTaint(m, corpus) })
	}
	if err == nil {
		span("harden", func() {
			var h *polar.Hardened
			if h, err = polar.Harden(m, rep.TaintedClasses()); err == nil {
				h.TuneFromTaint(rep)
			}
		})
	}
	if err == nil {
		span("analysis", func() { static = analysis.Analyze(m, analysis.Options{EnableAll: true}) })
	}
	var dynamic []string
	if err == nil {
		dynamic = rep.TaintedClasses()
		c["fuzz.execs"] += float64(fr.Execs)
		c["fuzz.edges"] += float64(fr.Edges)
		c["taint.classes"] += float64(len(dynamic))
	}
	tl.checkPolicy(p, dynamic, static, err)
	return total
}

// countPass sets the workload up afresh and runs every program once in
// the baseline, metadata and observed arms with telemetry attached, plus
// one traced policy pipeline, and returns the summed counts. A fresh
// set-up gives each pass fresh layout interners, so two passes with the
// same seed must agree exactly.
func countPass(s spec, seed int64, refs []*program, tl *tally) (counts, []progCounts, error) {
	progs, _, err := setup(s, seed)
	if err != nil {
		return nil, nil, err
	}
	c := counts{}
	rows := make([]progCounts, len(progs))
	for i, p := range progs {
		p.refValue, p.refOutput = refs[i].refValue, refs[i].refOutput
		r, err := execArm(p, armMetadata, polar.NewTelemetry())
		tl.checkRun(p, "metadata", r.res, err)
		if err != nil {
			continue
		}
		res, snap := r.res, r.tel.Registry.Snapshot()
		rows[i] = progCounts{
			instructions: res.VM.Instructions, allocs: res.Runtime.Allocs, frees: res.Runtime.Frees,
			memcpys: res.Runtime.Memcpys, access: res.Runtime.MemberAccess,
			icHits: res.Perf.InlineHits, icMisses: res.Perf.InlineMisses,
		}
		add := func(name string, v uint64) { c[name] += float64(v) }
		add("vm.instructions", res.VM.Instructions)
		add("vm.calls", res.VM.Calls)
		add("vm.fused_dispatches", res.Perf.FusedDispatches)
		add("vm.ic_hits", res.Perf.InlineHits)
		add("vm.ic_misses", res.Perf.InlineMisses)
		add("core.cache_hits", res.Runtime.CacheHits)
		add("core.cache_misses", res.Runtime.CacheMisses)
		add("core.meta_probes", res.Runtime.MetaProbes)
		add("core.member_access", res.Runtime.MemberAccess)
		add("core.allocs", res.Runtime.Allocs)
		add("core.frees", res.Runtime.Frees)
		add("core.memcpys", res.Runtime.Memcpys)
		add("layout.generated", snap.Counters["event.layout-gen"])
		add("layout.unique", res.Runtime.Meta.LayoutsUnique)
		add("layout.shared", res.Runtime.Meta.LayoutsShared)
		add("heap.allocs", snap.Counters["heap.allocs"])
		add("heap.reuses", snap.Counters["heap.reuses"])
		add("heap.fresh_carves", snap.Counters["heap.fresh_carves"])

		rb, err := execArm(p, armBaseline, nil)
		tl.checkRun(p, "baseline", rb.res, err)
		if err == nil {
			add("baseline.instructions", rb.res.VM.Instructions)
		}

		ro, err := execArm(p, armObserved, nil)
		tl.checkRun(p, "observed", ro.res, err)
		if err == nil {
			ro.rec.Publish(ro.tel.Registry)
			osnap := ro.tel.Registry.Snapshot()
			for name, v := range osnap.Counters {
				if strings.HasPrefix(name, "event.") {
					add("telemetry.events", v)
				}
			}
			add("exectrace.records", ro.xw.Records())
			add("flight.events_seen", ro.rec.EventsSeen())
			add("flight.dropped", osnap.Counters["flight.dropped"])
		}
	}
	steps := policySteps{}
	for _, p := range progs {
		tracedPolicy(p, s, tl, steps, c)
	}
	return c, rows, nil
}

// countGate compares two count passes and reports every count that
// differs.
func countGate(a, b counts, tl *tally) {
	for _, name := range countNames {
		tl.attempted++
		if a[name] != b[name] {
			tl.fail("count gate: %s is %v then %v with the same seed", name, a[name], b[name])
		}
	}
}

// traceOverhead times the metadata pass with and without telemetry
// attached, in interleaved pairs, and returns the median ratio.
func traceOverhead(progs []*program, budget time.Duration, tl *tally) float64 {
	pass := func(traced bool) time.Duration {
		runtime.GC()
		var total time.Duration
		for _, p := range progs {
			var tel *polar.Telemetry
			if traced {
				tel = polar.NewTelemetry()
			}
			r, err := execArm(p, armMetadata, tel)
			tl.checkRun(p, "metadata-traced", r.res, err)
			total += r.dur
		}
		return total
	}
	var ratios []float64
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		var plain, traced time.Duration
		if round%2 == 0 {
			plain, traced = pass(false), pass(true)
		} else {
			traced, plain = pass(true), pass(false)
		}
		ratios = append(ratios, float64(traced)/float64(plain))
	}
	return median(ratios)
}

// layerMetrics assembles the traced report's per-layer metrics.
type layerInputs struct {
	setups []setupTimes
	sm     *samples
	c      counts
	steps  policySteps // summed over the policy passes of the timed loop
	micro  map[string]float64
	genNs  float64
	keyNs  float64
	heapNs float64
	trace  float64
}

func layerMetrics(in layerInputs) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	medSetup := func(f func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, st := range in.setups {
			xs = append(xs, ms(f(st)))
		}
		return median(xs)
	}
	put("workload.build_ms", "ms", medSetup(func(t setupTimes) time.Duration { return t.build }))
	put("instrument.apply_ms", "ms", medSetup(func(t setupTimes) time.Duration { return t.harden }))
	put("vm.compile_ms", "ms", medSetup(func(t setupTimes) time.Duration { return t.compile }))

	c := in.c
	for _, name := range []string{"vm.instructions", "vm.calls", "vm.fused_dispatches", "vm.ic_hits", "vm.ic_misses",
		"core.cache_hits", "core.cache_misses", "core.meta_probes", "core.allocs", "core.frees", "core.memcpys",
		"layout.generated", "heap.allocs", "heap.reuses", "heap.fresh_carves",
		"telemetry.events", "exectrace.records", "flight.events_seen", "flight.dropped",
		"fuzz.execs", "fuzz.edges", "taint.classes"} {
		put(name, "count", c[name])
	}
	lookups := c["vm.ic_hits"] + c["vm.ic_misses"]
	put("vm.ic_hit_ratio", "ratio", safeDiv(c["vm.ic_hits"], lookups))
	put("layout.shared_ratio", "ratio", safeDiv(c["layout.shared"], c["layout.unique"]+c["layout.shared"]))

	sm := in.sm
	raw := map[string]float64{"calib_ms": median(sm.calib), "policy_ms": sm.policy.rawPass()}
	for a := arm(0); a < numArms; a++ {
		raw[armNames[a]+"_ms"] = sm.arm[a].rawPass()
	}
	for name, v := range raw {
		put(name, "ms", v)
	}

	dispatchNs := raw["baseline_ms"] * 1e6 / c["baseline.instructions"]
	put("vm.dispatch_ns", "ns", dispatchNs)
	for _, k := range []string{"getptr.metadata", "getptr.stateless", "malloc", "free", "memcpy"} {
		name := "core." + k + "_ns"
		if strings.HasPrefix(k, "getptr.") {
			name = "core.getptr_ns." + strings.TrimPrefix(k, "getptr.")
		}
		put(name, "ns", in.micro[k])
	}
	put("layout.generate_ns", "ns", in.genNs)
	put("layout.generate_keyed_ns", "ns", in.keyNs)
	put("heap.alloc_free_ns", "ns", in.heapNs)

	// The ledger: each layer's count times its isolated per-op cost.
	// Resolver calls are the member accesses the inline cache did not
	// answer.
	est := map[string]float64{
		"est.dispatch_ms": c["vm.instructions"] * dispatchNs / 1e6,
		"est.getptr_ms":   (c["core.member_access"] - c["vm.ic_hits"]) * in.micro["getptr.metadata"] / 1e6,
		"est.malloc_ms":   c["core.allocs"] * in.micro["malloc"] / 1e6,
		"est.free_ms":     c["core.frees"] * in.micro["free"] / 1e6,
		"est.memcpy_ms":   c["core.memcpys"] * in.micro["memcpy"] / 1e6,
	}
	for name, v := range est {
		put(name, "ms", v)
	}
	put("ledger.residual", "ratio", ledgerResidual(raw["metadata_ms"], est))
	put("trace_overhead", "ratio", in.trace)

	passes := float64(sm.policy.rounds())
	for step, name := range map[string]string{"fuzz": "fuzz.ms", "taint": "taint.ms", "analysis": "analysis.ms"} {
		put(name, "ms", safeDiv(ms(in.steps[step]), passes))
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// programRows renders the traced report's per-program table.
func programRows(progs []*program, rows []progCounts, sm *samples) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %7s %7s %7s %8s %8s %8s %9s %9s\n",
		"program", "instructions", "allocs", "frees", "memcpys", "accesses", "ic-hits", "ic-miss", "overhead", "paper")
	for i, p := range progs {
		r := rows[i]
		ratio := median(normalise(sm.arm[armMetadata].raw[i], sm.arm[armBaseline].raw[i]))
		paper := "-"
		if p.w.PaperOverheadPct >= 0 {
			paper = fmt.Sprintf("%.1f%%", p.w.PaperOverheadPct)
		}
		fmt.Fprintf(&b, "%-20s %12d %7d %7d %7d %8d %8d %8d %8.1f%% %9s\n",
			p.w.Name, r.instructions, r.allocs, r.frees, r.memcpys, r.access, r.icHits, r.icMisses,
			100*(ratio-1), paper)
	}
	return b.String()
}

// sortedKeys returns m's keys in order (for stable reports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
