package polar

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"polar/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the committed goldens")

const loweringGolden = "testdata/lowering_fingerprints.golden"

// loweringFingerprints compiles every committed examples/**/*.ir module
// and every workload under the default compile options, plain and
// hardened, and renders one "name variant fingerprint" line per
// Program, sorted by name.
func loweringFingerprints(t *testing.T) []byte {
	t.Helper()
	type entry struct {
		name string
		mod  *Module
		// targets are the classes Harden instruments (nil = all).
		targets []string
	}
	var entries []entry
	irs, err := filepath.Glob(filepath.Join("examples", "*", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range irs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		entries = append(entries, entry{name: filepath.ToSlash(path), mod: m})
	}
	for _, w := range workload.All() {
		entries = append(entries, entry{name: w.Name, mod: w.Module, targets: w.ExpectedTainted})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	var buf bytes.Buffer
	for _, e := range entries {
		plain, err := Prepare(e.mod)
		if err != nil {
			t.Fatalf("%s: prepare: %v", e.name, err)
		}
		h, err := Harden(e.mod, e.targets)
		if err != nil {
			t.Fatalf("%s: harden: %v", e.name, err)
		}
		hard, err := PrepareHardened(h)
		if err != nil {
			t.Fatalf("%s: prepare hardened: %v", e.name, err)
		}
		fmt.Fprintf(&buf, "%s plain %016x\n", e.name, plain.Fingerprint())
		fmt.Fprintf(&buf, "%s hardened %016x\n", e.name, hard.Fingerprint())
	}
	return buf.Bytes()
}

// TestLoweringFingerprintGolden pins the default lowering: the
// fingerprint of every example module and workload, plain and
// hardened, must match the committed golden. Any change to the
// bytecode the compiler emits shows up here.
// Regenerate with: go test -run TestLoweringFingerprintGolden -update .
func TestLoweringFingerprintGolden(t *testing.T) {
	got := loweringFingerprints(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(loweringGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(loweringGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(loweringGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("lowered bytecode drifted from %s\ngot:\n%s\nwant:\n%s", loweringGolden, got, want)
	}
}
