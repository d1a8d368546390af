package policy

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPolicyParse feeds arbitrary bytes to the policy reader. Malformed
// input must come back as an error, never a panic, and an accepted
// policy must round-trip: its Marshal output parses again and
// re-marshals to the same bytes. The seeds are the committed policy
// files taintclass wrote (each must parse).
func FuzzPolicyParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed policy seeds: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			f.Fatalf("%s: committed seed does not parse: %v", path, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"targets":["A","A"]}`))
	f.Add([]byte(`{"targets":["A"],"classes":{"A":{"minDummies":3,"maxDummies":1}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted policy does not marshal: %v", err)
		}
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled policy does not parse: %v\n%s", err, out)
		}
		out2, err := p2.Marshal()
		if err != nil {
			t.Fatalf("re-parsed policy does not marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("policy does not round-trip:\n%s\nvs\n%s", out, out2)
		}
	})
}
