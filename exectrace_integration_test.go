package polar

import (
	"bytes"
	"fmt"
	"testing"

	"polar/internal/evalrun"
	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/telemetry/exectrace"
)

// traceCaseStudy hardens m, runs it once under engine e with an
// execution trace attached (warn policy, so attack scenarios complete),
// and returns the encoded trace.
func traceCaseStudy(t *testing.T, m *ir.Module, e Engine, seed int64, args []int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	xw := NewExecTrace(&buf)
	h, err := Harden(ir.Clone(m), nil)
	if err != nil {
		t.Fatalf("harden: %v", err)
	}
	if _, err := RunHardened(h, WithEngine(e), WithSeed(seed), WithWarnPolicy(),
		WithExecTrace(xw), WithArgs(args...)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := xw.Close(); err != nil {
		t.Fatalf("close trace: %v", err)
	}
	return buf.Bytes()
}

// TestEngineDifferentialTraces extends the engine-differential suite to
// the execution trace itself: every security case study must produce a
// byte-identical trace on the bytecode and legacy engines — not merely
// the same outputs and stats, but the same runtime events in the same
// order with the same resolved offsets.
func TestEngineDifferentialTraces(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			bc := traceCaseStudy(t, cs.Build(), EngineBytecode, 99, cs.AttackArgs)
			lg := traceCaseStudy(t, cs.Build(), EngineLegacy, 99, cs.AttackArgs)
			if bytes.Equal(bc, lg) {
				return
			}
			ta, errA := exectrace.Read(bytes.NewReader(bc))
			tb, errB := exectrace.Read(bytes.NewReader(lg))
			if errA != nil || errB != nil {
				t.Fatalf("traces differ and do not decode: %v / %v", errA, errB)
			}
			if d := exectrace.Diff(ta, tb); d != nil {
				t.Fatalf("engine traces diverge:\n%s", d.Format("bytecode", "legacy"))
			}
			t.Fatal("engine traces byte-differ but records match (encoding drift)")
		})
	}
}

// TestEngineDifferentialWorkloadTraces runs the full workload catalog
// through the trace-level engine differential (the polarbench "traces"
// experiment) and demands byte identity everywhere.
func TestEngineDifferentialWorkloadTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload catalog; covered by the CI trace job")
	}
	// A rekey schedule makes the stateless arm also exercise the
	// epoch-advance and live-object remap paths under the differential.
	rows, err := evalrun.Harness{RekeyEvery: 64}.Traces("", 11)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]int{}
	for _, r := range rows {
		byMode[r.Mode]++
		if !r.Identical {
			t.Errorf("%s/%s: engine traces diverged: %s", r.Mode, r.App, r.Divergence)
		}
		if r.Records == 0 {
			t.Errorf("%s/%s: empty trace", r.Mode, r.App)
		}
	}
	if byMode["metadata"] == 0 || byMode["stateless"] == 0 ||
		byMode["metadata"] != byMode["stateless"] {
		t.Fatalf("mode coverage = %v, want the full catalog per layout mode", byMode)
	}
}

// TestExecTraceParallelWidthIdentical gives each of eight tasks its own
// writer and runs the pool at width 1 and width 8: every task's trace
// must be byte-identical across widths. Scheduling may reorder task
// execution, but each trace is single-owner and seed-derived, so the
// bytes cannot care.
func TestExecTraceParallelWidthIdentical(t *testing.T) {
	cs := exploit.CaseStudies()[0]
	h, err := Harden(cs.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareHardened(h)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 8
	collect := func(width int) [][]byte {
		t.Helper()
		bufs := make([]bytes.Buffer, tasks)
		if err := evalrun.ForEach(tasks, width, func(i int) error {
			xw := NewExecTrace(&bufs[i])
			seed := evalrun.TaskSeed(42, fmt.Sprintf("run/%d", i))
			if _, err := prep.Run(WithSeed(seed), WithWarnPolicy(),
				WithExecTrace(xw), WithArgs(cs.AttackArgs...)); err != nil {
				return err
			}
			return xw.Close()
		}); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, tasks)
		for i := range bufs {
			out[i] = bufs[i].Bytes()
		}
		return out
	}
	serial, parallel := collect(1), collect(tasks)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("task %d: empty trace", i)
		}
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("task %d: trace bytes differ between -parallel 1 and -parallel %d", i, tasks)
		}
	}
}

// TestExecTraceLocalizesSeedPerturbation perturbs the seed and checks
// the diff names the exact first divergent record — which must be the
// first seed-dependent event (a layout generation or randomized
// allocation), never a block or call (control flow is seed-independent
// for this module).
func TestExecTraceLocalizesSeedPerturbation(t *testing.T) {
	cs := exploit.CaseStudies()[0]
	a := traceCaseStudy(t, cs.Build(), EngineBytecode, 42, cs.AttackArgs)
	b := traceCaseStudy(t, cs.Build(), EngineBytecode, 43, cs.AttackArgs)
	ta, err := exectrace.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := exectrace.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	d := exectrace.Diff(ta, tb)
	if d == nil {
		t.Fatal("different seeds produced identical traces")
	}
	// Exactness: every record before the reported index matches, and the
	// reported pair differs.
	for i := 0; i < d.Index; i++ {
		if ta.Records[i] != tb.Records[i] {
			t.Fatalf("records differ at %d, before reported divergence %d", i, d.Index)
		}
	}
	if d.A == nil || d.B == nil || *d.A == *d.B {
		t.Fatalf("reported divergence is not a divergence: %+v vs %+v", d.A, d.B)
	}
	switch d.A.Kind {
	case exectrace.KindBlock, exectrace.KindCall:
		t.Errorf("first divergence is control flow (%s), want a seed-dependent event", d.A.Kind)
	}
}
