// Package layout generates randomized in-object layouts — the
// randomization heart of POLaR (§IV.A).
//
// A Layout maps each original field of a class to a randomized offset.
// Generation permutes member order, optionally inserts dummy members to
// raise entropy, and plants booby-trap dummies directly in front of
// function-pointer members so that a linear overflow reaching the
// function pointer must first corrupt a canary (§IV.A.3, after Crane et
// al.'s booby trapping). A cache-line-bounded mode reproduces the
// partial randomization of Linux randstruct (§II.C) for the static-OLR
// baseline.
package layout

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Mode selects the permutation strategy.
type Mode int

// Modes. ModeIdentity emits the compiler layout (useful as a control in
// ablation benchmarks).
const (
	ModeIdentity Mode = iota + 1
	ModeFull
	ModeCacheLine
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeIdentity:
		return "identity"
	case ModeFull:
		return "full"
	case ModeCacheLine:
		return "cacheline"
	default:
		return "?"
	}
}

// FieldInfo is the minimal per-member description the generator needs;
// the CIE's Member satisfies it via Adapt.
type FieldInfo struct {
	Size   int
	Align  int
	IsFptr bool
}

// Config controls generation.
type Config struct {
	Mode Mode
	// MinDummies/MaxDummies bound the number of extra dummy members
	// inserted per object ("optionally adding unused member variables to
	// increase the entropy", §III.B).
	MinDummies int
	MaxDummies int
	// BoobyTraps plants a canary dummy immediately before each
	// function-pointer member (§IV.A.3).
	BoobyTraps bool
	// CacheLineSize bounds permutation groups in ModeCacheLine
	// (default 64).
	CacheLineSize int
	// DummySize is the byte size of each dummy slot (default 8).
	DummySize int
}

// DefaultConfig is the configuration used throughout the paper's
// evaluation: full permutation, 1–2 dummies, booby traps on.
func DefaultConfig() Config {
	return Config{Mode: ModeFull, MinDummies: 1, MaxDummies: 2, BoobyTraps: true}
}

func (c *Config) cacheLine() int {
	if c.CacheLineSize <= 0 {
		return 64
	}
	return c.CacheLineSize
}

func (c *Config) dummySize() int {
	if c.DummySize <= 0 {
		return 8
	}
	return c.DummySize
}

// Slot is one randomized layout position.
type Slot struct {
	// Field is the original field index, or -1 for a dummy.
	Field  int
	Offset int
	Size   int
	// Trap marks a dummy carrying a canary checked on free/copy.
	Trap bool
}

// Layout is a concrete randomized object layout.
type Layout struct {
	Slots     []Slot
	Offsets   []int // original field index -> randomized offset
	TotalSize int
	Dummies   int

	hash uint64
}

// Hash is a cheap identity hash used by the layout deduplication table
// ("Polar removes the duplicate metadata when two objects have the same
// randomized memory layout", §V.B). Equal layouts hash equal; collisions
// are resolved with Equal.
func (l *Layout) Hash() uint64 { return l.hash }

// Equal reports structural equality of two layouts.
func (l *Layout) Equal(o *Layout) bool {
	if l.TotalSize != o.TotalSize || len(l.Slots) != len(o.Slots) {
		return false
	}
	for i := range l.Slots {
		if l.Slots[i] != o.Slots[i] {
			return false
		}
	}
	return true
}

// Key renders a canonical identity string (diagnostics and tests; the
// hot dedup path uses Hash/Equal).
func (l *Layout) Key() string { return canonicalKey(l) }

// TrapSlots returns the booby-trap slots.
func (l *Layout) TrapSlots() []Slot {
	var out []Slot
	for _, s := range l.Slots {
		if s.Trap {
			out = append(out, s)
		}
	}
	return out
}

// FieldOffset returns the randomized offset of original field i.
func (l *Layout) FieldOffset(i int) (int, error) {
	if i < 0 || i >= len(l.Offsets) {
		return 0, fmt.Errorf("layout: field %d out of range (%d fields)", i, len(l.Offsets))
	}
	return l.Offsets[i], nil
}

// Clone returns a heap copy of l that shares no memory with it. A
// layout a Generator returns is scratch until Clone (or the runtime's
// LayoutInterner, which clones what it keeps) copies it.
func (l *Layout) Clone() *Layout {
	c := *l
	c.Slots = append([]Slot(nil), l.Slots...)
	c.Offsets = append([]int(nil), l.Offsets...)
	return &c
}

// part is one member or dummy inside a placement unit.
type part struct {
	slot  Slot // Field/Size/Trap set; Offset assigned at placement
	align int
}

// unit is a placement unit: a run of parts that must stay adjacent (a
// booby trap fused to its function pointer) or a single member/dummy.
// It indexes the generator's flat parts buffer.
type unit struct {
	first, n int
	align    int
}

// Generator generates layouts into buffers it reuses across calls, so a
// warmed generator allocates nothing. The layout Generate and
// GenerateKeyed return lives in the generator and stays valid only
// until the next call; Clone it to keep it. The zero value is ready to
// use. Not safe for concurrent use.
type Generator struct {
	parts   []part
	units   []unit
	scratch Layout

	// keyed/keyedRng are re-keyed per GenerateKeyed call instead of
	// built afresh (rand.Rand keeps no state of its own on the draw
	// paths Generate uses, so reuse changes no draw).
	keyed    *keyedSource
	keyedRng *rand.Rand
}

// Generate builds a randomized layout for the given fields. It makes
// one Intn draw for the dummy count (ModeFull with a dummy range), then
// one Shuffle over the units (ModeFull) or one per cache-line group
// (ModeCacheLine); ModeIdentity draws nothing.
func (g *Generator) Generate(fields []FieldInfo, cfg Config, rng *rand.Rand) (*Layout, error) {
	if rng == nil && cfg.Mode != ModeIdentity {
		return nil, fmt.Errorf("layout: nil rng for mode %v", cfg.Mode)
	}
	g.reset(len(fields), max(cfg.MinDummies, cfg.MaxDummies))
	switch cfg.Mode {
	case ModeIdentity:
		g.addFields(fields, false, 0)
	case ModeFull:
		ds := cfg.dummySize()
		g.addFields(fields, cfg.BoobyTraps, ds)
		nd := cfg.MinDummies
		if cfg.MaxDummies > cfg.MinDummies {
			nd += rng.Intn(cfg.MaxDummies - cfg.MinDummies + 1)
		}
		for d := 0; d < nd; d++ {
			g.addUnit(ds, part{slot: Slot{Field: -1, Size: ds}, align: ds})
		}
		g.shuffleUnits(rng, 0, len(g.units))
	case ModeCacheLine:
		// Shuffle members only within cache-line-sized groups of the
		// original order (randstruct's "partially randomized considering
		// the cache line", §II.C). Dummies are not inserted in this mode.
		g.addFields(fields, false, 0)
		line := cfg.cacheLine()
		start, cum := 0, 0
		for i, f := range fields {
			if cum+f.Size > line && i > start {
				g.shuffleUnits(rng, start, i)
				start, cum = i, 0
			}
			cum += f.Size
		}
		if len(fields) > start {
			g.shuffleUnits(rng, start, len(fields))
		}
	default:
		return nil, fmt.Errorf("layout: unknown mode %d", cfg.Mode)
	}
	return g.place(len(fields)), nil
}

// reset empties the buffers, growing each to fit nFields members and up
// to nDummies dummies in one allocation.
func (g *Generator) reset(nFields, nDummies int) {
	if n := nFields + nDummies; cap(g.units) < n {
		g.units = make([]unit, 0, n)
	}
	if n := 2*nFields + nDummies; cap(g.parts) < n {
		g.parts = make([]part, 0, n)
		g.scratch.Slots = make([]Slot, 0, n)
	}
	g.parts, g.units = g.parts[:0], g.units[:0]
}

// addFields appends one unit per field, in field order. With traps, a
// function pointer's unit carries a booby-trap dummy of at least ds
// bytes directly in front of it.
func (g *Generator) addFields(fields []FieldInfo, traps bool, ds int) {
	for i, f := range fields {
		member := part{slot: Slot{Field: i, Size: f.Size}, align: f.Align}
		if !traps || !f.IsFptr {
			g.addUnit(f.Align, member)
			continue
		}
		t := max(ds, f.Align)
		g.addUnit(t, part{slot: Slot{Field: -1, Size: t, Trap: true}, align: t}, member)
	}
}

func (g *Generator) addUnit(align int, parts ...part) {
	g.units = append(g.units, unit{first: len(g.parts), n: len(parts), align: align})
	g.parts = append(g.parts, parts...)
}

func (g *Generator) shuffleUnits(rng *rand.Rand, from, to int) {
	units := g.units[from:to]
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
}

// place lays the units out in their current order into the scratch
// layout.
func (g *Generator) place(nFields int) *Layout {
	l := &g.scratch
	l.Slots = l.Slots[:0]
	if cap(l.Offsets) < nFields {
		l.Offsets = make([]int, nFields)
	}
	l.Offsets = l.Offsets[:nFields]
	l.Dummies = 0
	off, maxAlign := 0, 1
	for _, u := range g.units {
		if u.align > maxAlign {
			maxAlign = u.align
		}
		off = alignUp(off, u.align)
		for _, p := range g.parts[u.first : u.first+u.n] {
			off = alignUp(off, p.align)
			s := p.slot
			s.Offset = off
			l.Slots = append(l.Slots, s)
			if s.Field >= 0 {
				l.Offsets[s.Field] = off
			} else {
				l.Dummies++
			}
			off += s.Size
		}
	}
	l.TotalSize = alignUp(off, maxAlign)
	if l.TotalSize == 0 {
		l.TotalSize = 1
	}
	l.hash = slotHash(l)
	return l
}

// Generate builds a randomized layout for the given fields into a fresh
// Generator and returns a heap copy of it.
func Generate(fields []FieldInfo, cfg Config, rng *rand.Rand) (*Layout, error) {
	var g Generator
	l, err := g.Generate(fields, cfg, rng)
	if err != nil {
		return nil, err
	}
	return l.Clone(), nil
}

func canonicalKey(l *Layout) string {
	var b strings.Builder
	for _, s := range l.Slots {
		fmt.Fprintf(&b, "%d@%d+%d", s.Field, s.Offset, s.Size)
		if s.Trap {
			b.WriteByte('t')
		}
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "=%d", l.TotalSize)
	return b.String()
}

// EntropyBits estimates the layout entropy for a class under cfg: the
// base-2 log of the number of distinct placements (item permutations ×
// dummy count choices). This is the "randomness entropy" the dummy
// members increase (§IV.A.3).
func EntropyBits(nFields, nFptrs int, cfg Config) float64 {
	switch cfg.Mode {
	case ModeIdentity:
		return 0
	case ModeCacheLine:
		// Approximation: permutations within one line of all fields.
		return lgFactorial(nFields)
	}
	choices := float64(cfg.MaxDummies - cfg.MinDummies + 1)
	// Booby traps fuse with their fptr, so items = fields + dummies.
	bits := 0.0
	for d := cfg.MinDummies; d <= cfg.MaxDummies; d++ {
		items := nFields + d
		b := lgFactorial(items)
		if b > bits {
			bits = b
		}
	}
	if choices > 1 {
		bits += math.Log2(choices)
	}
	return bits
}

func lgFactorial(n int) float64 {
	s := 0.0
	for i := 2; i <= n; i++ {
		s += math.Log2(float64(i))
	}
	return s
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// slotHash is FNV-1a over the slot tuples plus total size.
func slotHash(l *Layout) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for _, s := range l.Slots {
		mix(uint64(uint32(s.Field + 1)))
		mix(uint64(s.Offset))
		mix(uint64(s.Size))
		if s.Trap {
			mix(0x7472)
		}
	}
	mix(uint64(l.TotalSize))
	return h
}
