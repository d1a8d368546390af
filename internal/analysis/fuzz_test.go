package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"polar/internal/analysis"
	"polar/internal/ir"
)

// FuzzAnalyze feeds arbitrary text through the IR parser, the
// validator and every analysis pass. Three properties under fuzzing:
// nothing panics, invalid modules are rejected before the passes run,
// and analysis of a valid module is deterministic.
func FuzzAnalyze(f *testing.F) {
	seeds := []string{filepath.Join("..", "..", "examples", "quickstart", "quickstart.ir")}
	dumps, _ := filepath.Glob(filepath.Join("..", "..", "examples", "casestudies", "*.ir"))
	seeds = append(seeds, dumps...)
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("struct %T { a: i64 }\nfunc @main() -> i64 {\nentry:\n  ret 0\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		if err := ir.Validate(m); err != nil {
			return
		}
		res1 := analysis.Analyze(m, analysis.Options{})
		res2 := analysis.Analyze(m, analysis.Options{})
		if res1.Findings.Render() != res2.Findings.Render() {
			t.Fatalf("nondeterministic findings:\n--- run1\n%s--- run2\n%s",
				res1.Findings.Render(), res2.Findings.Render())
		}
		t1, t2 := res1.Taint.TaintedClasses(), res2.Taint.TaintedClasses()
		if len(t1) != len(t2) {
			t.Fatalf("nondeterministic taint verdict: %v vs %v", t1, t2)
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("nondeterministic taint verdict: %v vs %v", t1, t2)
			}
		}
	})
}

// FuzzDecodeSiteFacts feeds arbitrary bytes to the -facts artifact
// reader. Malformed input must come back as an error, never a panic,
// and accepted facts must round-trip: their EncodeJSON output decodes
// again and re-encodes to the same bytes, and converting them into
// compile facts must not panic. The seeds are the committed facts
// artifacts polarc -facts wrote (each must decode).
func FuzzDecodeSiteFacts(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.facts.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed site-facts seeds: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := analysis.DecodeSiteFacts(data); err != nil {
			f.Fatalf("%s: committed seed does not decode: %v", path, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"module":"m","k":2,"sites":[{"pos":"@main.entry#0","churn":true},{"pos":"@f.b#1","shareKey":"K"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := analysis.DecodeSiteFacts(data)
		if err != nil {
			return
		}
		_ = sf.CompileFacts()
		out, err := sf.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted facts do not encode: %v", err)
		}
		sf2, err := analysis.DecodeSiteFacts(out)
		if err != nil {
			t.Fatalf("encoded facts do not decode: %v\n%s", err, out)
		}
		out2, err := sf2.EncodeJSON()
		if err != nil {
			t.Fatalf("re-decoded facts do not encode: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("site facts do not round-trip:\n%s\nvs\n%s", out, out2)
		}
	})
}
