package vm

import (
	"reflect"
	"testing"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// compileVariants is the grid of compile inputs the lowering tests
// sweep: the default compile and a facts-seeded one. The rich module
// has no olr_getptr site, so the facts plan is empty; the variant pins
// that an empty plan perturbs neither lowering determinism nor engine
// parity.
func compileVariants() map[string]CompileOpts {
	return map[string]CompileOpts{
		"static-fuse-all": {},
		"facts":           {Facts: &StaticFacts{Sites: map[string]SiteSeed{}}},
	}
}

// TestLoweringDeterministic is the lowering-determinism gate's
// in-process form: compiling the same module under the same options
// twice must produce byte-identical lowered code (equal Fingerprint).
// Fusion, constant pooling and register allocation are all pure
// functions of (module, facts) — any map-iteration or timestamp
// dependence in the pipeline would show up here.
func TestLoweringDeterministic(t *testing.T) {
	for name, opts := range compileVariants() {
		a, err := CompileWith(richModule(t), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := CompileWith(richModule(t), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: recompilation changed the lowered code: %016x vs %016x",
				name, a.Fingerprint(), b.Fingerprint())
		}
	}
}

// TestEnginesDifferentialUnderCompileOpts re-runs the engine
// differential under every compile variant: the lowered program must
// match the tree-walker result-for-result and stat-for-stat, the
// profiler's per-site cycle attribution must still sum to
// Stats.Instructions exactly, and a
// sparse fuel sweep must agree at every sampled value (including the
// exhaustion boundary, where a fused run may be cut mid-sequence).
func TestEnginesDifferentialUnderCompileOpts(t *testing.T) {
	for name, opts := range compileVariants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			m := richModule(t)
			prog, err := CompileWith(ir.Clone(m), opts)
			if err != nil {
				t.Fatal(err)
			}
			runBC := func(extra ...Option) (*VM, int64, error) {
				v, err := prog.NewInstance(append([]Option{WithEngine(EngineBytecode), WithInput([]byte{9, 8, 7})}, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				r, runErr := v.Run(5)
				return v, r, runErr
			}
			runLegacy := func(extra ...Option) (*VM, int64, error) {
				return runEngine(t, m, EngineLegacy, append([]Option{WithInput([]byte{9, 8, 7})}, extra...), 5)
			}

			// Full run: result, stats, output and profiler attribution.
			pb, pl := profile.NewSiteProfiler(), profile.NewSiteProfiler()
			vb, rb, eb := runBC(WithProfiler(pb))
			vl, rl, el := runLegacy(WithProfiler(pl))
			if eb != nil || el != nil {
				t.Fatalf("errors: bytecode=%v legacy=%v", eb, el)
			}
			if rb != rl || vb.Stats != vl.Stats || string(vb.Output()) != string(vl.Output()) {
				t.Fatalf("engines diverge: result %d/%d stats\n%+v\n%+v", rb, rl, vb.Stats, vl.Stats)
			}
			if cycles, _, _ := pb.Totals(); cycles != vb.Stats.Instructions {
				t.Fatalf("profiled cycles %d != executed instructions %d", cycles, vb.Stats.Instructions)
			}
			if !reflect.DeepEqual(pb.Snapshot(), pl.Snapshot()) {
				t.Fatalf("per-site profiles differ under %s", name)
			}

			// Sparse fuel sweep: every 17th value plus the boundary
			// region, enough to land inside fused runs of any length
			// without the full-sweep cost per variant.
			total := vb.Stats.Instructions
			var fuels []uint64
			for f := uint64(1); f < total; f += 17 {
				fuels = append(fuels, f)
			}
			fuels = append(fuels, total-1, total, total+1)
			for _, fuel := range fuels {
				fb, frb, feb := runBC(WithFuel(fuel))
				fl, frl, fel := runLegacy(WithFuel(fuel))
				if (feb == nil) != (fel == nil) || (feb != nil && feb.Error() != fel.Error()) {
					t.Fatalf("fuel=%d: errors differ:\nbytecode: %v\nlegacy:   %v", fuel, feb, fel)
				}
				if frb != frl || fb.Stats != fl.Stats {
					t.Fatalf("fuel=%d: engines diverge: %d/%d\n%+v\n%+v", fuel, frb, frl, fb.Stats, fl.Stats)
				}
			}
		})
	}
}
