package polar

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"polar/internal/taint"
	"polar/internal/vm"
)

const instrTraceGolden = "testdata/instr_trace.golden"

// traceCasesSrc exercises the instruction trace at the points where an
// engine settles its per-block accounting: @main calls @mix once per
// loop iteration, @mix's entry block and both loop blocks are
// straight-line runs the bytecode lowering fuses, and @main(31) faults
// inside @mix (a load through an unmapped pointer, mid-run) on the
// fourth call. @main(0) runs to completion.
const traceCasesSrc = `module "tracecases"

struct %Pair { i64 a; i64 b; }

func @mix(ptr p, i64 n) i64 {
entry:
  %r2 = fieldptr %Pair, %r0, 0
  %r3 = load i64, %r2
  %r4 = add %r3, %r1
  %r5 = mul %r4, 3
  %r6 = fieldptr %Pair, %r0, 1
  store i64 %r5, %r6
  %r7 = lt %r5, 100
  condbr %r7, ok, bad
ok:
  ret %r5
bad:
  %r8 = sub %r5, %r5
  %r9 = add %r8, 8
  %r10 = load i64, %r9
  ret %r10
}

func @main(i64 n) i64 {
entry:
  %r1 = alloc %Pair
  %r2 = fieldptr %Pair, %r1, 0
  store i64 %r0, %r2
  %r3 = local i64
  store i64 0, %r3
  br loop.head
loop.head:
  %r4 = load i64, %r3
  %r5 = lt %r4, 4
  condbr %r5, loop.body, done
loop.body:
  %r6 = call @mix(%r1, %r4)
  %r7 = load i64, %r3
  %r8 = add %r7, 1
  store i64 %r8, %r3
  br loop.head
done:
  %r9 = fieldptr %Pair, %r1, 1
  %r10 = load i64, %r9
  ret %r10
}
`

// traceOutcome renders how a run ended.
func traceOutcome(ret int64, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("ret: %d", ret)
}

// traceDigest summarizes a long trace by its line count and SHA-256.
func traceDigest(tr []byte) string {
	return fmt.Sprintf("lines %d sha256 %x", bytes.Count(tr, []byte("\n")), sha256.Sum256(tr))
}

// sameOnBothEngines runs fn on both engines and fails unless the two
// traces and outcomes are byte-identical; it returns the shared result.
func sameOnBothEngines(t *testing.T, name string, fn func(e vm.Engine) ([]byte, string)) ([]byte, string) {
	t.Helper()
	bt, bo := fn(vm.EngineBytecode)
	lt, lo := fn(vm.EngineLegacy)
	if bo != lo {
		t.Errorf("%s: outcome differs: bytecode %q, legacy %q", name, bo, lo)
	}
	if !bytes.Equal(bt, lt) {
		bl, ll := strings.Split(string(bt), "\n"), strings.Split(string(lt), "\n")
		for i := 0; i < len(bl) && i < len(ll); i++ {
			if bl[i] != ll[i] {
				t.Errorf("%s: trace line %d differs:\nbytecode %q\nlegacy   %q", name, i+1, bl[i], ll[i])
				return bt, bo
			}
		}
		t.Errorf("%s: trace lengths differ: bytecode %d lines, legacy %d", name, len(bl), len(ll))
	}
	return bt, bo
}

// instrTraces renders every case of the instruction-trace golden:
//
//   - every committed examples/**/*.ir module, plain and hardened
//     (seed 1), as a line count and digest of the full trace;
//   - the trace-cases module under a maxLines cap, with a fault inside
//     a callee, and with a taint engine attached through WithHooks, in
//     full;
//   - a fuel sweep over the faulting run, one outcome line per budget.
//     Each budget's trace must be exactly the matching prefix of the
//     unlimited trace, so fuel exhaustion inside a fused run, a callee
//     or a hooked run prints exactly the instructions that ran.
func instrTraces(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	irs, err := filepath.Glob(filepath.Join("examples", "*", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(irs)
	for _, path := range irs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		plain, err := Prepare(m)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		h, err := Harden(m, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		hard, err := PrepareHardened(h)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.ToSlash(path)
		for _, c := range []struct {
			variant string
			p       *Prepared
		}{{"plain", plain}, {"hardened", hard}} {
			tr, outcome := sameOnBothEngines(t, name+" "+c.variant, func(e vm.Engine) ([]byte, string) {
				var buf bytes.Buffer
				res, err := c.p.Run(WithEngine(e), WithSeed(1), WithTrace(&buf, 0))
				var ret int64
				if res != nil {
					ret = res.Value
				}
				return buf.Bytes(), traceOutcome(ret, err)
			})
			fmt.Fprintf(&out, "== %s %s\n%s\n%s\n", name, c.variant, traceDigest(tr), outcome)
		}
	}

	m, err := Parse(traceCasesSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// run executes @main(arg) with the given fuel (0 = default), trace
	// cap and, when hooked, a taint engine attached.
	run := func(e vm.Engine, arg int64, fuel uint64, maxLines int, hooked bool) ([]byte, string) {
		var buf bytes.Buffer
		opts := []vm.Option{vm.WithEngine(e), vm.WithTrace(&buf, maxLines)}
		if fuel > 0 {
			opts = append(opts, vm.WithFuel(fuel))
		}
		var eng *taint.Engine
		if hooked {
			eng = taint.NewEngine(nil)
			opts = append(opts, vm.WithHooks(eng))
		}
		v, err := prog.NewInstance(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if eng != nil {
			eng.Bind(v)
		}
		ret, err := v.Run(arg)
		return buf.Bytes(), traceOutcome(ret, err)
	}
	section := func(name string, tr []byte, outcome string) {
		fmt.Fprintf(&out, "== %s\n%s%s\n", name, tr, outcome)
	}
	tr, outcome := sameOnBothEngines(t, "capped", func(e vm.Engine) ([]byte, string) { return run(e, 0, 0, 20, false) })
	section("tracecases main(0) maxLines=20", tr, outcome)
	full, outcome := sameOnBothEngines(t, "callee fault", func(e vm.Engine) ([]byte, string) { return run(e, 31, 0, 0, false) })
	section("tracecases main(31) callee fault", full, outcome)
	tr, outcome = sameOnBothEngines(t, "hooked", func(e vm.Engine) ([]byte, string) { return run(e, 31, 0, 0, true) })
	section("tracecases main(31) WithHooks", tr, outcome)
	if !bytes.Equal(tr, full) {
		t.Error("attaching hooks changed the instruction trace")
	}

	fmt.Fprintf(&out, "== tracecases main(31) fuel sweep\n")
	lines := bytes.Count(full, []byte("\n"))
	for fuel := 1; fuel <= lines; fuel++ {
		want := full
		for i, n := 0, 0; i < len(full); i++ {
			if full[i] == '\n' {
				if n++; n == fuel {
					want = full[:i+1]
					break
				}
			}
		}
		for _, hooked := range []bool{false, true} {
			name := fmt.Sprintf("fuel %d hooked=%v", fuel, hooked)
			tr, outcome := sameOnBothEngines(t, name, func(e vm.Engine) ([]byte, string) { return run(e, 31, uint64(fuel), 0, hooked) })
			if !bytes.Equal(tr, want) {
				t.Errorf("%s: trace is not the %d-line prefix of the unlimited trace:\n%s", name, fuel, tr)
			}
			if !hooked {
				fmt.Fprintf(&out, "fuel %d: %s\n", fuel, outcome)
			}
		}
	}
	return out.Bytes()
}

// TestInstrTraceGolden pins the instruction trace (vm.WithTrace): the
// "@fn.block\tinstr" text of every case above must be identical on both
// engines and match the committed golden.
// Regenerate with: go test -run TestInstrTraceGolden -update .
func TestInstrTraceGolden(t *testing.T) {
	got := instrTraces(t)
	if *update {
		if err := os.WriteFile(instrTraceGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(instrTraceGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("instruction trace drifted from %s\ngot:\n%s\nwant:\n%s", instrTraceGolden, got, want)
	}
}
