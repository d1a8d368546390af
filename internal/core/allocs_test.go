package core

import (
	"math/rand"
	"testing"

	"polar/internal/race"
)

// TestOlrMallocAllocs gates olr_malloc's Go allocations on a warmed
// metadata-mode runtime: once the interner has seen the class's layouts,
// an allocate/free cycle allocates only the ObjectMeta record.
func TestOlrMallocAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	h := newViolationHarness(t, func(c *Config) { c.Telemetry = nil })
	cycle := func() {
		if err := h.r.olrFree(h.v, h.alloc(h.hashA)); err != nil {
			t.Fatalf("olrFree: %v", err)
		}
	}
	// Class A has 84 distinct layouts; warm until the interner holds
	// every one of them.
	for i := 0; i < 5000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n > 1 {
		t.Errorf("olr_malloc + olr_free: %v allocs/op, want <= 1", n)
	}
}

// TestOlrMemcpyAllocs gates olr_memcpy between two live tracked objects
// of one class: the member-wise remap allocates nothing, in either
// resolver mode.
func TestOlrMemcpyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, mode := range []LayoutMode{LayoutModeMetadata, LayoutModeStateless} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newViolationHarness(t, func(c *Config) {
				c.Telemetry = nil
				c.LayoutMode = mode
			})
			src, dst := h.alloc(h.hashA), h.alloc(h.hashA)
			cls, _ := h.r.table.ByHash(h.hashA)
			size := cls.Struct.Size()
			copyOnce := func() {
				if err := h.r.olrMemcpy(h.v, dst, src, size, h.hashA); err != nil {
					t.Fatalf("olrMemcpy: %v", err)
				}
			}
			copyOnce()
			if n := testing.AllocsPerRun(100, copyOnce); n != 0 {
				t.Errorf("olr_memcpy: %v allocs/op, want 0", n)
			}
		})
	}
}

// TestRetainedLayoutsSurviveChurn catches a retained layout that points
// into the runtime's generator scratch: every live MetaStore record's
// layout must keep its identity while later allocations, frees, copies
// and RerandomizeOnCopy adoptions generate new layouts.
func TestRetainedLayoutsSurviveChurn(t *testing.T) {
	h := newViolationHarness(t, func(c *Config) { c.Telemetry = nil })
	hashes := []uint64{h.hashA, h.hashB}
	keys := map[uint64]string{} // live base -> layout key at registration
	classOf := map[uint64]uint64{}
	var live []uint64
	snap := func(base, hash uint64) {
		meta, ok := h.r.Store().Lookup(base)
		if !ok || meta.Freed {
			t.Fatalf("no live record at %#x", base)
		}
		keys[base] = meta.Layout.Key()
		classOf[base] = hash
		live = append(live, base)
	}
	for i := 0; i < 64; i++ {
		hash := hashes[i%2]
		snap(h.alloc(hash), hash)
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 1000; op++ {
		switch rng.Intn(4) {
		case 0: // allocate
			hash := hashes[rng.Intn(2)]
			snap(h.alloc(hash), hash)
		case 1: // free
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			base := live[i]
			if err := h.r.olrFree(h.v, base); err != nil {
				t.Fatalf("olrFree: %v", err)
			}
			delete(keys, base)
			live = append(live[:i], live[i+1:]...)
		case 2: // copy between two live objects of one class
			src := live[rng.Intn(len(live))]
			for _, dst := range live {
				if dst != src && classOf[dst] == classOf[src] {
					cls, _ := h.r.table.ByHash(classOf[src])
					if err := h.r.olrMemcpy(h.v, dst, src, cls.Struct.Size(), classOf[src]); err != nil {
						t.Fatalf("olrMemcpy: %v", err)
					}
					break
				}
			}
		case 3: // copy into a raw chunk, which adopts a fresh layout
			src := live[rng.Intn(len(live))]
			dst, err := h.v.Heap.Alloc(256)
			if err != nil {
				t.Fatalf("raw alloc: %v", err)
			}
			cls, _ := h.r.table.ByHash(classOf[src])
			if err := h.r.olrMemcpy(h.v, dst, src, cls.Struct.Size(), classOf[src]); err != nil {
				t.Fatalf("olrMemcpy (adopt): %v", err)
			}
			snap(dst, classOf[src])
		}
	}
	if len(live) < 64 {
		t.Fatalf("only %d live records survived; the check needs a population", len(live))
	}
	for _, base := range live {
		meta, ok := h.r.Store().Lookup(base)
		if !ok {
			t.Fatalf("record at %#x vanished", base)
		}
		if got := meta.Layout.Key(); got != keys[base] {
			t.Fatalf("layout of %#x changed after registration:\n got  %s\n want %s", base, got, keys[base])
		}
	}
}
