package exectrace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzExecTraceRead feeds arbitrary bytes to the trace reader. A
// malformed trace must come back as an error, never a panic, and a
// trace the reader accepts must survive everything polartrace does
// with one: formatting every record, computing its stats and diffing
// it against itself. The seeds are committed hardened traces of the
// quickstart and use-after-free examples (each must decode), plus
// their truncations.
func FuzzExecTraceRead(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.xt"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed trace seeds: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(data)); err != nil {
			f.Fatalf("%s: committed seed does not decode: %v", path, err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(Magic)+1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Fatalf("Read returned a trace alongside error %v", err)
			}
			return
		}
		for _, r := range tr.Records {
			_ = r.Format()
		}
		_ = Compute(tr).Format()
		if d := Diff(tr, tr); d != nil {
			t.Fatalf("a trace differs from itself:\n%s", d.Format("a", "a"))
		}
	})
}
