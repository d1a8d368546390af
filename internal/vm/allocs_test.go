package vm

import (
	"bytes"
	"strings"
	"testing"

	"polar/internal/race"
)

// TestMemoryCopyAllocs gates the plain copy path: once its staging
// buffer has grown, Memory.Copy allocates nothing, page straddles and
// overlapping ranges included.
func TestMemoryCopyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	mem := newMemory()
	src := uint64(2*pageSize - 40)
	copyOnce := func() {
		if err := mem.Copy(src+8, src, 96); err != nil {
			t.Fatal(err)
		}
		if err := mem.Copy(src, src+8, 96); err != nil {
			t.Fatal(err)
		}
	}
	copyOnce()
	if n := testing.AllocsPerRun(100, copyOnce); n != 0 {
		t.Errorf("Memory.Copy: %v allocs/op, want 0", n)
	}
}

// TestMemoryCopyMemmove pins Copy's contract: overlapping copies in
// either direction behave like memmove across a page boundary, and the
// source is fault-checked before the destination.
func TestMemoryCopyMemmove(t *testing.T) {
	base := uint64(pageSize - 5)
	pattern := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name     string
		dst, src uint64
		want     []byte
	}{
		{"forward", base + 3, base, []byte{1, 2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"backward", base, base + 3, []byte{4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 0, 0, 0}},
	} {
		mem := newMemory()
		if err := mem.WriteBytes(base, pattern); err != nil {
			t.Fatal(err)
		}
		if err := mem.Copy(tc.dst, tc.src, len(pattern)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := mem.ReadBytes(base, 13)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: memory = %v, want %v", tc.name, got, tc.want)
		}
	}
	mem := newMemory()
	err := mem.Copy(0x10, 0x20, 4)
	if err == nil || !strings.Contains(err.Error(), "0x20") {
		t.Errorf("null src and dst: error %v, want the source fault at 0x20", err)
	}
}
