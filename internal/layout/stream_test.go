package layout

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed layout-stream golden")

const streamGolden = "testdata/stream.golden"

// streamFieldSets are the field lists the stream golden pins: a small
// class with one function pointer, and a wide one with two function
// pointers, a 16-byte-aligned member and more than two cache lines of
// static size (so cache-line mode shuffles several groups).
var streamFieldSets = []struct {
	name   string
	fields []FieldInfo
}{
	{"small", []FieldInfo{
		{Size: 8, Align: 8, IsFptr: true},
		{Size: 4, Align: 4},
		{Size: 4, Align: 4},
		{Size: 8, Align: 8},
		{Size: 2, Align: 2},
		{Size: 1, Align: 1},
	}},
	{"wide", []FieldInfo{
		{Size: 8, Align: 8},
		{Size: 1, Align: 1},
		{Size: 8, Align: 8, IsFptr: true},
		{Size: 16, Align: 16},
		{Size: 4, Align: 4},
		{Size: 2, Align: 2},
		{Size: 8, Align: 8, IsFptr: true},
		{Size: 32, Align: 8},
		{Size: 1, Align: 1},
		{Size: 4, Align: 4},
		{Size: 24, Align: 8},
		{Size: 2, Align: 2},
	}},
}

// streamConfigs returns the configurations the golden pins for mode.
func streamConfigs(mode Mode) []struct {
	name string
	cfg  Config
} {
	def := DefaultConfig()
	def.Mode = mode
	noDummies := def
	noDummies.MinDummies, noDummies.MaxDummies = 0, 0
	noTraps := def
	noTraps.BoobyTraps = false
	wideDummies := def
	wideDummies.MinDummies, wideDummies.MaxDummies = 0, 4
	return []struct {
		name string
		cfg  Config
	}{
		{"default", def},
		{"nodummies", noDummies},
		{"notraps", noTraps},
		{"dummies0-4", wideDummies},
	}
}

// streamKeyTriples are the (k0, k1, msg) inputs the keyed section pins.
var streamKeyTriples = [][3]uint64{
	{0, 0, 0},
	{7, 11, 0xdeadbeef},
	{0x0123456789abcdef, 0xfedcba9876543210, 0x40001000},
	{1, 2, 0x9e3779b97f4a7c15},
}

// layoutStream renders the layout stream: for every field set, mode and
// configuration, the Key of 64 successive Generate calls on one seeded
// rng followed by that rng's next Int63 (proving how many draws the 64
// calls consumed), then the GenerateKeyed keys for fixed triples.
func layoutStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fs := range streamFieldSets {
		for _, mode := range []Mode{ModeFull, ModeCacheLine, ModeIdentity} {
			for _, c := range streamConfigs(mode) {
				fmt.Fprintf(&buf, "# %s %s %s\n", fs.name, mode, c.name)
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < 64; i++ {
					l, err := Generate(fs.fields, c.cfg, rng)
					if err != nil {
						t.Fatalf("%s %s %s: %v", fs.name, mode, c.name, err)
					}
					fmt.Fprintln(&buf, l.Key())
				}
				fmt.Fprintf(&buf, "next %d\n", rng.Int63())
				for _, k := range streamKeyTriples {
					l, err := GenerateKeyed(fs.fields, c.cfg, k[0], k[1], k[2])
					if err != nil {
						t.Fatalf("%s %s %s keyed: %v", fs.name, mode, c.name, err)
					}
					fmt.Fprintf(&buf, "keyed %#x %#x %#x %s\n", k[0], k[1], k[2], l.Key())
				}
			}
		}
	}
	return buf.Bytes()
}

// TestLayoutStreamGolden pins the exact layout stream: same seed, same
// layouts, same number of rng draws. Every exectrace and flight golden
// downstream depends on it, so any change to the generator's draw order
// or placement shows up here first.
// Regenerate with: go test ./internal/layout -run TestLayoutStreamGolden -update
func TestLayoutStreamGolden(t *testing.T) {
	got := layoutStream(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(streamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("layout stream drifted from %s at line %d\ngot:  %s\nwant: %s", streamGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("layout stream drifted from %s: %d lines, want %d", streamGolden, len(gl), len(wl))
	}
}
