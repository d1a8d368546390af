package polar

import (
	"bytes"
	"reflect"
	"testing"

	"polar/internal/evalrun"
	"polar/internal/exploit"
	"polar/internal/fuzz"
	"polar/internal/ir"
	"polar/internal/vm"
	"polar/internal/workload"
)

// The bytecode engine claims bit-identical semantics to the
// tree-walker. These tests hold it to that claim end-to-end: every
// workload (baseline and hardened), the exploit scenarios, the
// evaluation tables and a fuzzing campaign must produce byte-identical
// results, stats, violation records and corpora on both engines.

// onBothEngines runs one sub-step per engine, concurrently — the engine
// travels explicitly, so nothing is shared between them — and returns
// the bytecode and legacy results in that order.
func onBothEngines[T any](t *testing.T, run func(t *testing.T, e Engine) T) (out [2]T) {
	t.Helper()
	ok := t.Run("engines", func(t *testing.T) {
		for i, e := range []Engine{EngineBytecode, EngineLegacy} {
			t.Run(e.String(), func(t *testing.T) {
				t.Parallel()
				out[i] = run(t, e)
			})
		}
	})
	if !ok {
		t.FailNow()
	}
	return out
}

func TestEngineDifferentialWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			type outcome struct {
				base, hard *Result
			}
			results := map[Engine]outcome{}
			for _, e := range []Engine{EngineBytecode, EngineLegacy} {
				opts := []Option{
					WithEngine(e), WithSeed(99),
					WithInput(w.Input), WithArgs(w.Args...),
				}
				base, err := Run(ir.Clone(w.Module), opts...)
				if err != nil {
					t.Fatalf("%v baseline: %v", e, err)
				}
				h, err := Harden(ir.Clone(w.Module), nil)
				if err != nil {
					t.Fatalf("%v harden: %v", e, err)
				}
				hard, err := RunHardened(h, opts...)
				if err != nil {
					t.Fatalf("%v hardened: %v", e, err)
				}
				results[e] = outcome{base, hard}
			}
			b, l := results[EngineBytecode], results[EngineLegacy]
			if b.base.Value != l.base.Value || !bytes.Equal(b.base.Output, l.base.Output) {
				t.Errorf("baseline output differs across engines")
			}
			if b.base.VM != l.base.VM {
				t.Errorf("baseline VM stats differ:\nbytecode %+v\nlegacy   %+v", b.base.VM, l.base.VM)
			}
			if b.hard.Value != l.hard.Value || !bytes.Equal(b.hard.Output, l.hard.Output) {
				t.Errorf("hardened output differs across engines")
			}
			if b.hard.VM != l.hard.VM {
				t.Errorf("hardened VM stats differ:\nbytecode %+v\nlegacy   %+v", b.hard.VM, l.hard.VM)
			}
			if !reflect.DeepEqual(b.hard.Runtime, l.hard.Runtime) {
				t.Errorf("hardened runtime stats differ:\nbytecode %+v\nlegacy   %+v", b.hard.Runtime, l.hard.Runtime)
			}
			if !reflect.DeepEqual(b.hard.Violations, l.hard.Violations) {
				t.Errorf("violation records differ:\nbytecode %+v\nlegacy   %+v", b.hard.Violations, l.hard.Violations)
			}
		})
	}
}

func TestEngineDifferentialExploits(t *testing.T) {
	const trials, seed = 25, 7
	byEngine := onBothEngines(t, func(t *testing.T, e Engine) map[string]exploit.Result {
		out := map[string]exploit.Result{}
		for _, def := range []exploit.Defense{exploit.DefenseNone, exploit.DefensePOLaR} {
			uaf, err := exploit.RunUAF(def, trials, seed, vm.WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			tc, err := exploit.RunTypeConfusion(def, trials, seed, vm.WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			out["uaf/"+def.String()] = uaf
			out["tc/"+def.String()] = tc
		}
		return out
	})
	if !reflect.DeepEqual(byEngine[0], byEngine[1]) {
		t.Fatalf("exploit outcomes differ across engines:\nbytecode %+v\nlegacy   %+v",
			byEngine[0], byEngine[1])
	}
}

func TestEngineDifferentialEvalTables(t *testing.T) {
	const seed = 5
	type tables struct {
		t3csv string
		t4csv string
	}
	byEngine := onBothEngines(t, func(t *testing.T, e Engine) tables {
		h := evalrun.Harness{Engine: e}
		r3, err := h.TableIII(seed)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := h.TableIV()
		if err != nil {
			t.Fatal(err)
		}
		return tables{evalrun.CSVTableIII(r3), evalrun.CSVTableIV(r4)}
	})
	if byEngine[0].t3csv != byEngine[1].t3csv {
		t.Errorf("Table III CSV differs across engines:\nbytecode:\n%s\nlegacy:\n%s",
			byEngine[0].t3csv, byEngine[1].t3csv)
	}
	if byEngine[0].t4csv != byEngine[1].t4csv {
		t.Errorf("Table IV CSV differs across engines:\nbytecode:\n%s\nlegacy:\n%s",
			byEngine[0].t4csv, byEngine[1].t4csv)
	}
}

// TestEngineDifferentialFuzz replays the same deterministic campaign on
// both engines: coverage feedback drives corpus growth, so identical
// corpora prove the engines agree on the coverage bitmap, crash set and
// execution outcomes of thousands of mutated inputs.
func TestEngineDifferentialFuzz(t *testing.T) {
	w := workload.LibPNG()
	cfg := fuzz.DefaultConfig(31)
	cfg.Iterations = 400
	byEngine := onBothEngines(t, func(t *testing.T, e Engine) *fuzz.Result {
		cfg := cfg
		cfg.Engine = e
		res, err := fuzz.Run(ir.Clone(w.Module), [][]byte{w.Input}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	b, l := byEngine[0], byEngine[1]
	if b.Execs != l.Execs || b.Edges != l.Edges {
		t.Fatalf("campaign shape differs: bytecode execs=%d edges=%d, legacy execs=%d edges=%d",
			b.Execs, b.Edges, l.Execs, l.Edges)
	}
	if !reflect.DeepEqual(b.Corpus, l.Corpus) {
		t.Fatalf("corpora differ: bytecode %d inputs, legacy %d inputs", len(b.Corpus), len(l.Corpus))
	}
	if !reflect.DeepEqual(b.Crashers, l.Crashers) {
		t.Fatalf("crasher sets differ: bytecode %d, legacy %d", len(b.Crashers), len(l.Crashers))
	}
	if len(b.Corpus) < 2 {
		t.Fatalf("campaign degenerate: corpus %d", len(b.Corpus))
	}
}
