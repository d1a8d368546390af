// Command perfbench is the repository benchmark. It runs one workload
// (churn, access or policy) for a fixed time and prints every metric
// with its unit; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. A human-readable
// report goes to standard error. See README.md for the workloads, the
// metrics and the layer each per-layer metric belongs to.
//
//	go run . --workload churn --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run sets the workload up after one
// untimed warm-up set-up; setup_s is the median.
const setupReps = 9

// calibReference is a fixed conversion from calibration units back to
// seconds. The calibration loop took 10 to 16 ms on the 2-vCPU machine
// the bounds in BENCHMARK.json were measured on, depending on its load.
const calibReference = 10 * time.Millisecond

func main() {
	name := flag.String("workload", "", "workload to run: churn, access or policy")
	seed := flag.Int64("seed", 1, "seed for inputs, runtime layouts and fuzz campaigns")
	seconds := flag.Int("seconds", 25, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	smoke := flag.Bool("smoke", false, "short self-check: two programs, minimal rounds")
	flag.Parse()
	// The workloads are single-goroutine. One P keeps the garbage
	// collector's work on the measured thread instead of on whichever
	// core a neighbouring process leaves free.
	runtime.GOMAXPROCS(1)
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	if *smoke {
		s, dur = smokeSpec(s), 0
	}
	res, err := run(s, *seed, dur, *trace == 1, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// smokeSpec shrinks a workload to its first two programs and one-step
// fuzz campaigns; with a zero duration the timed loop runs its minimum
// number of rounds.
func smokeSpec(s spec) spec {
	s.programs = s.programs[:2]
	if s.fuzzIters > 1 {
		s.fuzzIters = 1
	}
	return s
}

// run sets the workload up, measures it and returns the result; report
// receives the human-readable report.
func run(s spec, seed int64, dur time.Duration, traced bool, report io.Writer) (*result, error) {
	// Each set-up is bracketed by calibrations like the timed steps.
	var setups []setupTimes
	var setupRefs []float64
	var progs []*program
	runtime.GC()
	c0 := ms(calibrate())
	for i := 0; i <= setupReps; i++ {
		runtime.GC()
		ps, st, err := setup(s, seed)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		c1 := ms(calibrate())
		progs = ps
		if i > 0 {
			setups, setupRefs = append(setups, st), append(setupRefs, (c0+c1)/2)
		}
		c0 = c1
	}
	if err := computeReferences(progs); err != nil {
		return nil, err
	}
	tl := &tally{}
	var metrics map[string]metric
	if traced {
		var err error
		metrics, err = tracedRun(s, seed, progs, setups, dur, tl, report)
		if err != nil {
			return nil, err
		}
	} else {
		policyStep := func(p *program) time.Duration { return policyRun(p, s, tl) }
		sm := measure(progs, s, dur, policyStep, tl)
		metrics = endToEnd(s, progs, sm, setups, setupRefs, tl)
		fmt.Fprintf(report, "%s: %d arm rounds, %d policy rounds\n", s.name, sm.arm[0].rounds(), sm.policy.rounds())
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Fprintf(report, "  %-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(report, "  failed_frac %d/%d\n", tl.failed, tl.attempted)
	for _, f := range tl.failures {
		fmt.Fprintln(report, "  FAILED:", f)
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, nil
}

// endToEnd computes the gated metrics of an untraced run.
func endToEnd(s spec, progs []*program, sm *samples, setups []setupTimes, setupRefs []float64, tl *tally) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	// Set-up time in seconds of the reference machine: normalised like
	// the timings below, then scaled by calibReference.
	var setupMs []float64
	for _, st := range setups {
		setupMs = append(setupMs, ms(st.total()))
	}
	put("setup_s", "s", median(normalise(setupMs, setupRefs))*calibReference.Seconds())

	put("baseline_norm", "x-calib", sm.arm[armBaseline].norm())
	put("metadata_norm", "x-calib", sm.arm[armMetadata].norm())
	put("metadata_norm_p90", "x-calib", quantile(sm.arm[armMetadata].passSamples(), 0.9))
	put("stateless_norm", "x-calib", sm.arm[armStateless].norm())
	put("observed_norm", "x-calib", sm.arm[armObserved].norm())
	// Paired ratios: both runs of a pair are back to back in one round.
	overhead := func(a arm) float64 {
		var perProg []float64
		for i := range progs {
			perProg = append(perProg, median(normalise(sm.arm[a].raw[i], sm.arm[armBaseline].raw[i])))
		}
		return geomean(perProg)
	}
	put("metadata_overhead", "ratio", overhead(armMetadata))
	put("stateless_overhead", "ratio", overhead(armStateless))
	put("policy_norm", "x-calib", sm.policy.norm())
	put("policy_norm_p90", "x-calib", quantile(sm.policy.passSamples(), 0.9))

	put("go_alloc_mb", "MB", allocMB(s, progs, tl))
	put("peak_rss_mb", "MB", peakRSSMB())
	return out
}

// allocMB is the Go heap volume one pass of the workload's principal
// step allocates: the policy pass on policy, the metadata arm elsewhere.
func allocMB(s spec, progs []*program, tl *tally) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if s.name == "policy" {
		for _, p := range progs {
			policyRun(p, s, tl)
		}
	} else {
		passArm(progs, armMetadata, tl)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// tracedRun measures the per-layer metrics: exact counts (checked by
// running the count pass twice), raw pass times from a timed loop with
// a span around each policy step, isolated per-operation costs, the
// tracing overhead and the ledger.
func tracedRun(s spec, seed int64, progs []*program, setups []setupTimes, dur time.Duration, tl *tally, report io.Writer) (map[string]metric, error) {
	c, rows, err := countPass(s, seed, progs, tl)
	if err != nil {
		return nil, err
	}
	c2, _, err := countPass(s, seed, progs, tl)
	if err != nil {
		return nil, err
	}
	countGate(c, c2, tl)

	steps := policySteps{}
	scratch := counts{}
	policyStep := func(p *program) time.Duration { return tracedPolicy(p, s, tl, steps, scratch) }
	sm := measure(progs, s, dur/2, policyStep, tl)
	overhead := traceOverhead(progs, dur/5, tl)
	micro, err := microCosts(dur / 5)
	if err != nil {
		return nil, err
	}
	classes, err := classFields(progs)
	if err != nil {
		return nil, err
	}
	genNs, keyNs, err := layoutCosts(classes, seed)
	if err != nil {
		return nil, err
	}
	heapNs, err := heapCost(classes)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "%s traced: %d arm rounds, %d policy rounds\n%s",
		s.name, sm.arm[0].rounds(), sm.policy.rounds(), programRows(progs, rows, sm))
	return layerMetrics(layerInputs{
		setups: setups, sm: sm, c: c, steps: steps, micro: micro,
		genNs: genNs, keyNs: keyNs, heapNs: heapNs, trace: overhead,
	}), nil
}
