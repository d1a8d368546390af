package core

import (
	"sync"
	"sync/atomic"

	"polar/internal/layout"
	"polar/internal/telemetry"
)

// ObjectMeta is the per-object record of Fig. 4: base address → class
// hash + layout pointer. Freed metadata lingers (as a "ghost") until the
// chunk is re-registered, which is what lets olr_getptr flag obvious
// use-after-free attempts.
type ObjectMeta struct {
	Base      uint64
	ClassHash uint64
	Layout    *layout.Layout
	Size      int
	Freed     bool

	// mac is the integrity seal (0 unless Config.MetadataIntegrity).
	mac uint64
}

// MetaStats counts metadata-table events.
type MetaStats struct {
	Registered    uint64
	Retired       uint64
	LayoutsUnique uint64
	LayoutsShared uint64 // registrations served by the dedup table
}

// LayoutInterner is the layout deduplication table (§V.B: "remove the
// duplicate metadata when two objects have the same randomized memory
// layout"). It is independent of any object table so multiple runtimes
// — e.g. many VM instances of one Program — can share one interner and
// pool their dedup hits, while keeping private object tables (instance
// address spaces collide, layouts don't).
//
// Safe for concurrent use.
type LayoutInterner struct {
	mu sync.Mutex
	// dedup buckets layouts by (class hash ^ layout hash); collisions
	// within a bucket are resolved with Layout.Equal.
	dedup  map[uint64][]*layout.Layout
	unique uint64
	shared uint64

	// chainHist, when non-nil, observes the dedup-bucket chain length
	// walked by each Intern. It is attached (once) via AttachChainHist
	// by the first telemetry-carrying runtime built over this interner;
	// atomic because concurrent instances sharing the interner attach
	// and observe without holding mu.
	chainHist atomic.Pointer[telemetry.Histogram]
}

// NewLayoutInterner returns an empty dedup table.
func NewLayoutInterner() *LayoutInterner {
	return &LayoutInterner{dedup: make(map[uint64][]*layout.Layout)}
}

// AttachChainHist wires the histogram that Intern observes dedup-chain
// lengths into. The first attachment wins and later calls are no-ops,
// so a shared interner reports into one registry for its whole lifetime
// instead of being re-pointed at whichever concurrent run's registry
// was wired last. Safe for concurrent use.
func (in *LayoutInterner) AttachChainHist(h *telemetry.Histogram) {
	in.chainHist.CompareAndSwap(nil, h)
}

// Intern returns the canonical layout equal to l for the class,
// registering a copy of l if it is new, so l may be a generator's
// scratch layout. The returned layout must be used in place of l so
// identical layouts share one metadata record.
func (in *LayoutInterner) Intern(classHash uint64, l *layout.Layout) *layout.Layout {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := classHash ^ l.Hash()
	if h := in.chainHist.Load(); h != nil {
		h.Observe(float64(len(in.dedup[key])))
	}
	for _, prev := range in.dedup[key] {
		if prev.Equal(l) {
			in.shared++
			return prev
		}
	}
	c := l.Clone()
	in.dedup[key] = append(in.dedup[key], c)
	in.unique++
	return c
}

// MetaStore is the POLaR object-tracking table plus the layout
// deduplication table. The object table is one map under one RWMutex:
// each runtime builds its own store and serves one VM, so the lock is
// uncontended (only the LayoutInterner is shared across goroutines).
//
// The zero value is not usable; call NewMetaStore. Safe for concurrent
// use.
type MetaStore struct {
	mu         sync.RWMutex
	objects    map[uint64]*ObjectMeta
	registered uint64
	retired    uint64
	interner   *LayoutInterner
}

// NewMetaStore returns an empty store with a private interner.
func NewMetaStore() *MetaStore { return NewSharedMetaStore(nil) }

// NewSharedMetaStore returns an empty store deduplicating layouts
// through in (a private interner is created when in is nil). Sharing
// one interner across stores pools their dedup tables; the object
// tables stay private.
func NewSharedMetaStore(in *LayoutInterner) *MetaStore {
	if in == nil {
		in = NewLayoutInterner()
	}
	return &MetaStore{objects: make(map[uint64]*ObjectMeta), interner: in}
}

// Interner exposes the layout-dedup table (for sharing across stores).
func (s *MetaStore) Interner() *LayoutInterner { return s.interner }

// Intern forwards to the store's layout interner.
func (s *MetaStore) Intern(classHash uint64, l *layout.Layout) *layout.Layout {
	return s.interner.Intern(classHash, l)
}

// Register installs metadata for a freshly allocated object, replacing
// any ghost record at the same base. It returns the new record plus the
// replaced one (nil if none), so callers can invalidate caches covering
// the old object's fields.
func (s *MetaStore) Register(base uint64, classHash uint64, l *layout.Layout, size int) (*ObjectMeta, *ObjectMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.objects[base]
	m := &ObjectMeta{Base: base, ClassHash: classHash, Layout: l, Size: size}
	s.objects[base] = m
	s.registered++
	return m, old
}

// Lookup returns the metadata at base (live or ghost).
func (s *MetaStore) Lookup(base uint64) (*ObjectMeta, bool) {
	s.mu.RLock()
	m, ok := s.objects[base]
	s.mu.RUnlock()
	return m, ok
}

// MarkFreed flags the object as freed but keeps the ghost record.
func (s *MetaStore) MarkFreed(base uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.objects[base]; ok && !m.Freed {
		m.Freed = true
		s.retired++
	}
}

// Drop removes metadata entirely (used when ghosts should not linger,
// e.g. when the VM recycles a chunk for an untracked allocation).
func (s *MetaStore) Drop(base uint64) {
	s.mu.Lock()
	delete(s.objects, base)
	s.mu.Unlock()
}

// LiveCount returns the number of non-freed records (O(n); tests only).
func (s *MetaStore) LiveCount() int {
	live, _ := s.Counts()
	return live
}

// Stats returns a snapshot of the counters.
func (s *MetaStore) Stats() MetaStats {
	s.mu.RLock()
	st := MetaStats{Registered: s.registered, Retired: s.retired}
	s.mu.RUnlock()
	s.interner.mu.Lock()
	st.LayoutsUnique = s.interner.unique
	st.LayoutsShared = s.interner.shared
	s.interner.mu.Unlock()
	return st
}

// Counts returns the live (non-freed) and total record counts — the
// inputs to the metadata-table load-factor gauge (O(n); called at
// snapshot points, not on hot paths).
func (s *MetaStore) Counts() (live, total int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.objects {
		if !m.Freed {
			live++
		}
	}
	return live, len(s.objects)
}
