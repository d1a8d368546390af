package flight_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polar"
	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/telemetry/flight"
	"polar/internal/telemetry/health"
)

var update = flag.Bool("update", false, "rewrite the committed forensic-dump goldens")

// goldenSeed pins the layout randomization for the golden dumps; any
// seed works, the goldens just have to agree with it.
const goldenSeed = 42

// replay executes one committed case-study program (the .ir artifact,
// not the builder — the dump must derive from what CI ships) under the
// hardened runtime with a flight recorder and health monitor attached,
// and closes the run with an end-of-run capture so even the
// detection-evading scenarios (info-leak, use-before-init) produce a
// forensic artifact.
func replay(t *testing.T, cs exploit.CaseStudy) (*flight.Recorder, *health.Monitor, *polar.Result) {
	t.Helper()
	tel := polar.NewTelemetry()
	hm := health.NewMonitor(nil)
	hm.AttachOnce(tel.Bus)
	rec, res := replayWith(t, cs, polar.WithTelemetry(tel))
	return rec, hm, res
}

// replayWith runs one case study with a flight recorder and the extra
// options, then takes the end-of-run capture.
func replayWith(t *testing.T, cs exploit.CaseStudy, extra ...polar.Option) (*flight.Recorder, *polar.Result) {
	t.Helper()
	m := cs.Build()
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "casestudies", m.Name+".ir"))
	if err != nil {
		t.Fatalf("%s: committed IR missing: %v", cs.Name, err)
	}
	mod, err := polar.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: parse: %v", cs.Name, err)
	}
	h, err := polar.Harden(mod, []string{"Victim", "Attacker"})
	if err != nil {
		t.Fatalf("%s: harden: %v", cs.Name, err)
	}
	rec := polar.NewFlightRecorder(0)
	opts := append([]polar.Option{
		polar.WithSeed(goldenSeed),
		polar.WithWarnPolicy(),
		polar.WithFlightRecorder(rec),
		polar.WithArgs(cs.AttackArgs...),
	}, extra...)
	res, err := polar.RunHardened(h, opts...)
	if err != nil {
		t.Fatalf("%s: run: %v", cs.Name, err)
	}
	rec.CaptureFinal()
	return rec, res
}

func goldenPath(cs exploit.CaseStudy) string {
	return filepath.Join("testdata", cs.Name+".golden.json")
}

// TestGoldenDumps replays every committed case study and diffs the
// flight recorder's full forensic report against a committed golden.
// A recorder passed without WithTelemetry must see the same event
// stream, so its replay is held to the same golden.
// Regenerate with: go test ./internal/telemetry/flight -run Golden -update
func TestGoldenDumps(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			rec, _, _ := replay(t, cs)
			got, err := rec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", cs.Name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("forensic dump drifted from %s; regenerate with -update\ngot:\n%s", path, got)
			}
			solo, _ := replayWith(t, cs)
			got, err = solo.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("recorder without WithTelemetry differs from %s\ngot:\n%s", path, got)
			}
		})
	}
}

// TestGoldenDumpsDeterministic: same seed, same program, byte-identical
// report — the property that makes committed goldens meaningful.
func TestGoldenDumpsDeterministic(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			recA, _, _ := replay(t, cs)
			recB, _, _ := replay(t, cs)
			a, err := recA.Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := recB.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("two identically-seeded replays encode different reports")
			}
		})
	}
}

// TestDumpsNameTheAttack: every violation dump must identify the victim
// class, the offending site and the layout generation — the triage
// facts a security engineer needs first.
func TestDumpsNameTheAttack(t *testing.T) {
	// The scenarios the runtime detects (info-leak and use-before-init
	// evade detection by design and only get end-of-run dumps).
	detected := map[string]bool{
		"use-after-free": true,
		"type-confusion": true,
		"heap-overflow":  true,
		"offset-probe":   true,
	}
	for _, cs := range exploit.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			rec, _, _ := replay(t, cs)
			dumps := rec.Dumps()
			if len(dumps) == 0 {
				t.Fatal("no dumps captured (CaptureFinal should guarantee at least one)")
			}
			if !detected[cs.Name] {
				return
			}
			var viol *flight.Dump
			for _, d := range dumps {
				if d.Violation != nil {
					viol = d
					break
				}
			}
			if viol == nil {
				t.Fatal("detected scenario produced no violation dump")
			}
			if !strings.Contains(viol.Violation.Class, "Victim") && viol.Violation.Class != "Attacker" {
				t.Errorf("violation names class %q, want the victim or confused class", viol.Violation.Class)
			}
			if viol.Violation.Site == "" {
				t.Error("violation dump has no offending site")
			}
			if viol.Violation.LayoutID == 0 {
				t.Error("violation dump has no layout generation")
			}
			if len(viol.Window) == 0 {
				t.Error("violation dump has an empty event window")
			}
		})
	}
}

// TestScanDetectorFlagsProbe: the offset-probe case study must drive
// the health monitor to CRITICAL with the scan-alert reason, while the
// single-guess attacks and a benign workload must not.
func TestScanDetectorFlagsProbe(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			_, hm, _ := replay(t, cs)
			rep := hm.Report()
			scan := false
			for _, c := range rep.Classes {
				if c.ScanAlert {
					scan = true
				}
			}
			if cs.Name == "offset-probe" {
				if !scan || hm.Status() != health.StatusCritical {
					t.Errorf("offset probe: status=%v scan=%v, want CRITICAL with scan alert (reasons: %v)",
						rep.Status, scan, rep.Reasons)
				}
			} else if scan {
				t.Errorf("scan alert latched on %s (reasons: %v) — detector too eager", cs.Name, rep.Reasons)
			}
		})
	}
}

// TestBenignWorkloadStaysOK: a healthy hardened program must report OK
// — zero false positives from either detector.
func TestBenignWorkloadStaysOK(t *testing.T) {
	m := ir.NewModule("benign")
	node := m.MustStruct(ir.NewStruct("Node",
		ir.Field{Name: "val", Type: ir.I64},
		ir.Field{Name: "next", Type: ir.I64},
	))
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "n", Type: ir.I64})
	n := b.ParamReg(0)
	sum := ir.Value(ir.Const(0))
	for i := 0; i < 8; i++ {
		p := b.Alloc(node)
		vp := b.FieldPtrName(node, p, "val")
		b.Store(ir.I64, b.Bin(ir.BinAdd, n, ir.Const(int64(i))), vp)
		sum = b.Bin(ir.BinAdd, sum, b.Load(ir.I64, vp))
		b.Free(p)
	}
	b.Ret(sum)

	h, err := polar.Harden(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	tel := polar.NewTelemetry()
	hm := health.NewMonitor(nil)
	hm.AttachOnce(tel.Bus)
	res, err := polar.RunHardened(h,
		polar.WithSeed(goldenSeed), polar.WithTelemetry(tel), polar.WithArgs(10))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(8*10 + (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7))
	if res.Value != want {
		t.Fatalf("benign program computed %d, want %d", res.Value, want)
	}
	rep := hm.Report()
	if hm.Status() != health.StatusOK {
		t.Errorf("benign workload health = %v (reasons %v), want OK", rep.Status, rep.Reasons)
	}
}
