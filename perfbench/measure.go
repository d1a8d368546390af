package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"polar"
	"polar/internal/analysis"
)

// arm is one way of running a workload's programs.
type arm int

const (
	armBaseline  arm = iota // uninstrumented
	armMetadata             // hardened, shipped default resolver
	armStateless            // hardened, SPAM-style keyed derivation
	armObserved             // metadata with every observer attached
	numArms
)

var armNames = [numArms]string{"baseline", "metadata", "stateless", "observed"}

// tally counts attempted and failed operations and names the failures.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// checkRun compares one run against the program's reference output.
func (t *tally) checkRun(p *program, what string, res *polar.Result, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.fail("%s/%s: %v", p.w.Name, what, err)
	case res.Value != p.refValue || !bytes.Equal(res.Output, p.refOutput):
		t.fail("%s/%s: value %d output %q, reference %d %q",
			p.w.Name, what, res.Value, res.Output, p.refValue, p.refOutput)
	}
}

// checkPolicy checks one policy pipeline: the dynamic verdict must equal
// the program's Table I class list and the static verdict must cover it.
func (t *tally) checkPolicy(p *program, dynamic []string, static *analysis.Result, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s/policy: %v", p.w.Name, err)
		return
	}
	want := append([]string(nil), p.w.ExpectedTainted...)
	sort.Strings(want)
	got := append([]string(nil), dynamic...)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.fail("%s/policy: dynamic verdict %v, want %v", p.w.Name, got, want)
		return
	}
	covered := map[string]bool{}
	if static.Taint != nil {
		for _, c := range static.Taint.TaintedClasses() {
			covered[c] = true
		}
	}
	for _, c := range want {
		if !covered[c] {
			t.fail("%s/policy: static verdict misses %s", p.w.Name, c)
			return
		}
	}
}

// armRun is one executed program run and the observers attached to it.
type armRun struct {
	res *polar.Result
	dur time.Duration
	tel *polar.Telemetry
	rec *polar.FlightRecorder
	xw  *polar.ExecTraceWriter
}

// execArm runs p once in arm a. A non-nil tel is attached to read the
// run's counters; the observed arm always gets its own observers.
func execArm(p *program, a arm, tel *polar.Telemetry) (armRun, error) {
	r := armRun{tel: tel}
	prep := p.hard
	opts := []polar.Option{polar.WithInput(p.input), polar.WithArgs(p.w.Args...), polar.WithSeed(p.runSeed)}
	switch a {
	case armBaseline:
		prep = p.base
	case armStateless:
		opts = append(opts, polar.WithLayoutMode(polar.LayoutModeStateless))
	case armObserved:
		if r.tel == nil {
			r.tel = polar.NewTelemetry()
		}
		r.rec = polar.NewFlightRecorder(0)
		r.xw = polar.NewExecTrace(io.Discard)
		opts = append(opts, polar.WithFlightRecorder(r.rec), polar.WithExecTrace(r.xw))
	}
	if r.tel != nil {
		opts = append(opts, polar.WithTelemetry(r.tel))
	}
	start := time.Now()
	res, err := prep.Run(opts...)
	if r.xw != nil {
		if cerr := r.xw.Close(); err == nil {
			err = cerr
		}
	}
	r.dur = time.Since(start)
	r.res = res
	return r, err
}

// The calibration loop is a miniature bytecode interpreter written in
// the benchmark itself: a switch over a fixed pseudo-random program, a
// register file, and memory as a map of 64 KiB pages, like the VM's.
// Slow and fast phases of a shared machine move it about as much as
// they move the real interpreter, which a plain arithmetic loop does
// not; its work is fixed and it allocates nothing after init.
const (
	calibIters = 2_000_000
	calibPages = 64
)

type calibOp struct {
	code, a, b, c uint8
	imm           int64
}

var (
	calibProg [512]calibOp
	calibMem  = make(map[uint64][]byte, calibPages)
	calibRegs [16]int64
	calibSink int64
	calibMask = uint64(calibPages<<16 - 1)
)

func init() {
	x := uint64(88172645463325252)
	for i := range calibProg {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibProg[i] = calibOp{code: uint8(x % 7), a: uint8(x >> 8 % 16), b: uint8(x >> 16 % 16),
			c: uint8(x >> 24 % 16), imm: int64(x >> 32 % 1000)}
	}
	for p := uint64(0); p < calibPages; p++ {
		calibMem[p] = make([]byte, 1<<16)
	}
}

// calibrate runs the calibration interpreter for calibIters steps from
// the same initial state and returns its time.
func calibrate() time.Duration {
	start := time.Now()
	for i := range calibRegs {
		calibRegs[i] = int64(i)
	}
	for p := range calibMem {
		clear(calibMem[p])
	}
	regs := &calibRegs
	pc := 0
	for i := 0; i < calibIters; i++ {
		in := &calibProg[pc]
		switch in.code {
		case 0:
			regs[in.a] = regs[in.b] + regs[in.c]
		case 1:
			regs[in.a] = regs[in.b] ^ in.imm
		case 2:
			addr := uint64(regs[in.b]*2654435761+in.imm) & calibMask
			regs[in.a] += int64(calibMem[addr>>16][addr&0xffff])
		case 3:
			addr := uint64(regs[in.b]*40503+in.imm) & calibMask
			calibMem[addr>>16][addr&0xffff] = byte(regs[in.c])
		case 4:
			if regs[in.a]&1 == 0 {
				pc = int(in.imm) % len(calibProg)
				continue
			}
		case 5:
			regs[in.a] = regs[in.b] * 31
		default:
			regs[in.a] = regs[in.b] >> 3
		}
		if pc++; pc == len(calibProg) {
			pc = 0
		}
	}
	calibSink += regs[3]
	return time.Since(start)
}

// series is one timed quantity of a workload: for each program and
// round, the raw time in ms, the index of the calibration just before it
// and, once the run ends, its calibration reference (see
// samples.finish).
type series struct {
	raw, ref [][]float64 // [program][round]
	at       [][]int
}

func newSeries(n int) *series {
	return &series{raw: make([][]float64, n), ref: make([][]float64, n), at: make([][]int, n)}
}

func (s *series) add(prog int, raw float64, calibAt int) {
	s.raw[prog] = append(s.raw[prog], raw)
	s.at[prog] = append(s.at[prog], calibAt)
}

func (s *series) rounds() int { return len(s.raw[len(s.raw)-1]) }

// norm estimates the normalised pass time as the sum over programs of
// each program's median normalised time, so one program's outlier round
// does not move the whole pass.
func (s *series) norm() float64 {
	sum := 0.0
	for i := range s.raw {
		sum += median(normalise(s.raw[i], s.ref[i]))
	}
	return sum
}

// rawPass is norm without the normalisation, in ms.
func (s *series) rawPass() float64 {
	sum := 0.0
	for _, xs := range s.raw {
		sum += median(xs)
	}
	return sum
}

// passSamples returns one normalised pass time per round (for tails).
func (s *series) passSamples() []float64 {
	out := make([]float64, s.rounds())
	for i := range s.raw {
		for r, x := range normalise(s.raw[i][:len(out)], s.ref[i][:len(out)]) {
			out[r] += x
		}
	}
	return out
}

// samples holds one run's timings.
type samples struct {
	calib  []float64 // every calibration, ms, in order
	arm    [numArms]*series
	policy *series
}

// calibWindow is how many calibrations on each side of a step its
// reference covers.
const calibWindow = 3

// finish sets every step's calibration reference: the median of the
// calibWindow calibrations before the step and the calibWindow after it.
// One calibration is as noisy as one program run; the window median
// follows phases of the machine that last a second or more without
// adding that noise to every ratio.
func (sm *samples) finish() {
	for _, s := range append(sm.arm[:], sm.policy) {
		for i, ats := range s.at {
			s.ref[i] = s.ref[i][:0]
			for _, k := range ats {
				lo, hi := max(0, k+1-calibWindow), min(len(sm.calib), k+1+calibWindow)
				s.ref[i] = append(s.ref[i], median(sm.calib[lo:hi]))
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// passArm runs every program once in arm a. Output checks are outside
// the timed span.
func passArm(progs []*program, a arm, tl *tally) {
	for _, p := range progs {
		r, err := execArm(p, a, nil)
		tl.checkRun(p, armNames[a], r.res, err)
	}
}

// policyRun runs the Fig. 3 pipeline (polar.SelectAndHarden: fuzz,
// dynamic taint, harden) and the static analysis on one program and
// returns its time.
func policyRun(p *program, s spec, tl *tally) time.Duration {
	start := time.Now()
	_, rep, err := polar.SelectAndHarden(p.w.Module, [][]byte{p.input}, s.fuzzItersFor(p), p.fuzzSeed)
	var static *analysis.Result
	if err == nil {
		static = analysis.Analyze(p.w.Module, analysis.Options{EnableAll: true})
	}
	d := time.Since(start)
	var dynamic []string
	if err == nil {
		dynamic = rep.TaintedClasses()
	}
	tl.checkPolicy(p, dynamic, static, err)
	return d
}

// measure runs arm rounds for the workload's arm share of dur, then
// policy rounds for the rest. An arm round runs each program in every
// arm back to back (p.reps runs per arm), in an order that rotates from
// round to round; a policy round runs policyStep on each program. A
// calibration precedes and follows each program's step, and a forced GC
// precedes every timed run and calibration. The two phases are not
// interleaved: the policy pipeline's large heap would otherwise change
// the arm runs after it.
func measure(progs []*program, s spec, dur time.Duration, policyStep func(*program) time.Duration, tl *tally) *samples {
	sm := &samples{policy: newSeries(len(progs))}
	for a := range sm.arm {
		sm.arm[a] = newSeries(len(progs))
	}
	// Warm-up: fill the layout interners and lazy state of every arm.
	for a := arm(0); a < numArms; a++ {
		passArm(progs, a, tl)
	}
	const minArmRounds, minPolicyRounds = 3, 2
	start := time.Now()
	armDur := time.Duration(float64(dur) * (1 - s.policyShare))
	sm.calibrate()
	for round := 0; round < minArmRounds || time.Since(start) < armDur; round++ {
		sm.armRound(progs, round, tl)
	}
	for round := 0; round < minPolicyRounds || time.Since(start) < dur; round++ {
		for i, p := range progs {
			runtime.GC()
			d := policyStep(p)
			sm.policy.add(i, ms(d), len(sm.calib)-1)
			sm.calibrate()
		}
	}
	sm.finish()
	return sm
}

func (sm *samples) armRound(progs []*program, round int, tl *tally) {
	for i, p := range progs {
		var t [numArms]float64
		for k := arm(0); k < numArms; k++ {
			a := (k + arm(round)) % numArms
			runtime.GC()
			for j := 0; j < p.reps; j++ {
				r, err := execArm(p, a, nil)
				tl.checkRun(p, armNames[a], r.res, err)
				t[a] += ms(r.dur) / float64(p.reps)
			}
		}
		for a, d := range t {
			sm.arm[a].add(i, d, len(sm.calib)-1)
		}
		sm.calibrate()
	}
}

// calibrate times the calibration loop after a forced GC and records it.
func (sm *samples) calibrate() {
	runtime.GC()
	sm.calib = append(sm.calib, ms(calibrate()))
}
