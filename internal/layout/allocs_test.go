package layout

import (
	"math/rand"
	"testing"

	"polar/internal/race"
)

// TestGeneratorAllocs gates the reuse contract: a warmed Generator
// allocates nothing per layout, in every mode and in keyed derivation.
func TestGeneratorAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	fields := streamFieldSets[1].fields
	rng := rand.New(rand.NewSource(1))
	var g Generator
	for _, mode := range []Mode{ModeFull, ModeCacheLine, ModeIdentity} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxDummies = 4
		if _, err := g.Generate(fields, cfg, rng); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := g.Generate(fields, cfg, rng); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Generator.Generate(%v): %v allocs/op, want 0", mode, n)
		}
		msg := uint64(0)
		if _, err := g.GenerateKeyed(fields, cfg, 7, 11, msg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			msg += 64
			if _, err := g.GenerateKeyed(fields, cfg, 7, 11, msg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Generator.GenerateKeyed(%v): %v allocs/op, want 0", mode, n)
		}
	}
}

// TestCloneIsIndependent: a clone survives the generator's later calls
// unchanged.
func TestCloneIsIndependent(t *testing.T) {
	fields := streamFieldSets[0].fields
	rng := rand.New(rand.NewSource(3))
	var g Generator
	l, err := g.Generate(fields, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Clone()
	key, hash := c.Key(), c.Hash()
	for i := 0; i < 32; i++ {
		if _, err := g.Generate(fields, DefaultConfig(), rng); err != nil {
			t.Fatal(err)
		}
	}
	if c.Key() != key || c.Hash() != hash {
		t.Fatalf("clone changed after later generations: %s, want %s", c.Key(), key)
	}
}
