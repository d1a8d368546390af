package vm

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"polar/internal/ir"
)

// fuzzFuel bounds every fuzzed run so a generated infinite loop or
// runaway recursion ends in a fuel error instead of a hang.
const fuzzFuel = 20000

// FuzzCompile feeds arbitrary text through the parser and validator,
// then holds every module that passes to four properties: it compiles,
// it runs on both engines under a fixed fuel budget without panicking,
// the two engines agree on the returned value, the error text, Stats
// and the output log, and under a recording Hooks they report identical
// event streams. The seeds are the committed examples/**/*.ir modules.
func FuzzCompile(f *testing.F) {
	root := filepath.Join("..", "..", "examples")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".ir" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f.Add(string(src))
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		if err := ir.Validate(m); err != nil {
			return
		}
		prog, err := Compile(ir.Clone(m))
		if err != nil {
			t.Fatalf("valid module failed to compile: %v", err)
		}
		var args []int64
		if main := m.Func("main"); main != nil {
			for i := range main.Params {
				args = append(args, int64(i+1))
			}
		}
		run := func(e Engine) (*VM, int64, string) {
			v, err := prog.NewInstance(WithEngine(e), WithFuel(fuzzFuel), WithInput([]byte("fuzz")))
			if err != nil {
				t.Fatalf("%v: instance: %v", e, err)
			}
			r, err := v.Run(args...)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			return v, r, msg
		}
		vb, rb, eb := run(EngineBytecode)
		vl, rl, el := run(EngineLegacy)
		if eb != el {
			t.Fatalf("errors differ:\nbytecode: %s\nlegacy:   %s", eb, el)
		}
		if rb != rl || vb.Stats != vl.Stats || string(vb.Output()) != string(vl.Output()) {
			t.Fatalf("engines diverge: result %d/%d\n%+v\n%+v", rb, rl, vb.Stats, vl.Stats)
		}
		opts := []Option{WithFuel(fuzzFuel), WithInput([]byte("fuzz"))}
		diffHooked(t, "hooked", runHooked(t, prog, EngineBytecode, opts, args...), runHooked(t, prog, EngineLegacy, opts, args...))
	})
}
