package evalrun

import (
	"strings"
	"testing"

	"polar/internal/vm"
	"polar/internal/workload"
)

// The harness tests verify structure and invariants of every
// experiment, not absolute timings (reps=1 keeps them fast; the real
// measurement methodology is exercised by cmd/polarbench).

func TestTableIStructure(t *testing.T) {
	rows, err := Harness{}.TableI(0, 1) // no fuzzing: canonical inputs only
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.All()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workload.All()))
	}
	byApp := map[string]TaintRow{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if byApp["462.libquantum"].Count != 0 {
		t.Errorf("libquantum tainted count = %d, want 0 (the paper's negative result)", byApp["462.libquantum"].Count)
	}
	if byApp["483.xalancbmk"].Count != 59 {
		t.Errorf("xalancbmk tainted count = %d, want 59", byApp["483.xalancbmk"].Count)
	}
	if byApp["chakracore-1.10"].Count != 42 {
		t.Errorf("chakracore tainted count = %d, want 42", byApp["chakracore-1.10"].Count)
	}
	out := RenderTableI(rows)
	if !strings.Contains(out, "400.perlbench") || !strings.Contains(out, "samples") {
		t.Error("render missing expected content")
	}
}

func TestTableIIIStructure(t *testing.T) {
	rows, err := Harness{}.TableIII(5)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]CounterRow{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// The profile shape of the paper's Table III:
	if byApp["458.sjeng"].Allocs < 1000 || byApp["458.sjeng"].Memcpys == 0 {
		t.Errorf("sjeng profile wrong: %+v", byApp["458.sjeng"])
	}
	if byApp["429.mcf"].Allocs > 10 || byApp["429.mcf"].MemberAccess < 1000 {
		t.Errorf("mcf profile wrong: %+v", byApp["429.mcf"])
	}
	if r := byApp["429.mcf"]; r.CacheHitRate() < 0.99 {
		t.Errorf("mcf cache-hit rate = %f, want ~1.0", r.CacheHitRate())
	}
	if byApp["403.gcc"].Frees < 1000 {
		t.Errorf("gcc profile wrong: %+v", byApp["403.gcc"])
	}
	if byApp["464.h264ref"].Memcpys < 1000 {
		t.Errorf("h264ref profile wrong: %+v", byApp["464.h264ref"])
	}
	if out := RenderTableIII(rows); !strings.Contains(out, "cache-hit") {
		t.Error("render missing header")
	}
}

func TestTableIVAllCVEsDiscovered(t *testing.T) {
	rows, err := Harness{}.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("CVE rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("CVE-%s: expected objects %v not all discovered in %v",
				r.CVE, r.Expected, r.Discovered)
		}
	}
	if out := RenderTableIV(rows); !strings.Contains(out, "2015-8126") {
		t.Error("render missing CVE id")
	}
}

func TestFigure6SmokeAndChecksumGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Harness{}.Figure6(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 (libquantum excluded)", len(rows))
	}
	for _, r := range rows {
		if r.BaselineMS <= 0 || r.PolarMS <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.App, r)
		}
	}
	if out := RenderFigure6(rows); !strings.Contains(out, "458.sjeng") {
		t.Error("render missing sjeng")
	}
}

func TestTableIIAggregation(t *testing.T) {
	rows := []JSRow{
		{Suite: "Sunspider", Name: "a", Default: 10, Polar: 11},
		{Suite: "Sunspider", Name: "b", Default: 20, Polar: 20},
		{Suite: "Octane", Name: "c", Default: 100, Polar: 90, ScoreBased: true},
		{Suite: "Octane", Name: "d", Default: 300, Polar: 310, ScoreBased: true},
	}
	agg := TableII(rows)
	if len(agg) != 2 {
		t.Fatalf("suites = %d", len(agg))
	}
	var sun, oct SuiteRow
	for _, r := range agg {
		switch r.Suite {
		case "Sunspider":
			sun = r
		case "Octane":
			oct = r
		}
	}
	if sun.Default != 30 || sun.Polar != 31 {
		t.Errorf("sunspider totals = %+v", sun)
	}
	wantRatio := 100.0 * 1 / 30
	if diff := sun.RatioPct - wantRatio; diff > 0.01 || diff < -0.01 {
		t.Errorf("sunspider ratio = %f, want %f", sun.RatioPct, wantRatio)
	}
	if oct.Default != 200 || oct.Polar != 200 {
		t.Errorf("octane means = %+v", oct)
	}
	// Score-based diff direction: higher polar score = negative ratio.
	rows2 := []JSRow{{Suite: "Octane", Name: "x", Default: 100, Polar: 110, ScoreBased: true}}
	if agg2 := TableII(rows2); agg2[0].RatioPct >= 0 {
		t.Errorf("score improvement should be negative ratio, got %f", agg2[0].RatioPct)
	}
}

func TestJSRowDiffDirection(t *testing.T) {
	timeRow := JSRow{Default: 100, Polar: 105}
	if d := timeRow.DiffPct(); d < 4.9 || d > 5.1 {
		t.Errorf("time diff = %f", d)
	}
	scoreRow := JSRow{Default: 100, Polar: 95, ScoreBased: true}
	if d := scoreRow.DiffPct(); d < 4.9 || d > 5.1 {
		t.Errorf("score diff = %f", d)
	}
}

func TestSecurityReportStructure(t *testing.T) {
	rep, err := Harness{}.Security(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Matrix) != 24 { // 6 scenarios × 4 defenses
		t.Fatalf("matrix cells = %d, want 24", len(rep.Matrix))
	}
	if len(rep.Repeats) != 4 {
		t.Fatalf("repeat rows = %d, want 4", len(rep.Repeats))
	}
	out := rep.Render()
	for _, want := range []string{"use-after-free", "type-confusion", "heap-overflow", "olr-public", "identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAblationStructure checks the grid's shape and each arm's defining
// numbers under three harness configurations, which also proves the
// harness engine and compile options reach every measured VM: on the
// legacy engine nothing fuses, and disabling generalized fusion changes
// the default arm's fused-dispatch count. The harnesses share no state,
// so the three grids run concurrently.
func TestAblationStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	harnesses := []struct {
		name string
		h    Harness
	}{
		{"zero", Harness{}},
		{"legacy", Harness{Engine: vm.EngineLegacy}},
		{"fusion-off", Harness{Compile: vm.CompileOpts{FusionTopK: -1}}},
	}
	// fusedDefault[i] maps app -> the default arm's FusedDispatches
	// under harnesses[i].
	fusedDefault := make([]map[string]uint64, len(harnesses))
	t.Run("harnesses", func(t *testing.T) {
		for i, tc := range harnesses {
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				rows, err := tc.h.Ablation(1, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 8*3 {
					t.Fatalf("rows = %d, want 24", len(rows))
				}
				out := RenderAblation(rows)
				for _, cfg := range []string{"no-cache", "legacy-engine", "stateless"} {
					if !strings.Contains(out, cfg) {
						t.Errorf("render missing config name %q", cfg)
					}
				}
				fusedDefault[i] = map[string]uint64{}
				// The stateless arm's defining numbers: zero metadata probes,
				// zero metadata bytes per live object; metadata arms probe the
				// table.
				for _, r := range rows {
					if r.Config == "stateless" {
						if r.MetaProbes != 0 || r.MetaBytesPerLive != 0 {
							t.Errorf("stateless/%s: probes=%d bytes/obj=%v, want 0/0", r.App, r.MetaProbes, r.MetaBytesPerLive)
						}
					}
					if r.Config == "default" {
						if r.MetaProbes == 0 {
							t.Errorf("default/%s: MetaProbes = 0, want metadata-table lookups", r.App)
						}
						fusedDefault[i][r.App] = r.FusedDispatches
					}
					if (tc.h.Engine == vm.EngineLegacy || r.Config == legacyEngineConfig) && r.FusedDispatches != 0 {
						t.Errorf("%s/%s on the legacy engine: FusedDispatches = %d, want 0", r.Config, r.App, r.FusedDispatches)
					}
				}
			})
		}
	})
	zero, off := fusedDefault[0], fusedDefault[2]
	if len(zero) == 0 || len(off) == 0 {
		t.Fatal("missing default rows")
	}
	for app, n := range zero {
		if n == 0 {
			t.Errorf("default/%s: FusedDispatches = 0 under the static pipeline", app)
		}
		if off[app] == n {
			t.Errorf("default/%s: FusedDispatches = %d with and without generalized fusion; the harness compile options did not reach the compile", app, n)
		}
	}
}
