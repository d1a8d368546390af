package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"polar/internal/ir"
	"polar/internal/vm"
)

// Static site classification (analysis-guided compilation, DESIGN.md
// §14). Every member access the instrumentation pass will rewrite into
// olr_getptr is classified across ALL calling contexts:
//
//   - monomorphic: every context agrees the receiver is a heap object
//     of the declared class — the site's inline layout cache will see
//     one (class, field) forever;
//   - polymorphic: some context routes a different class, a raw
//     buffer, a stack object or a global through the site — the IC
//     entry would thrash, so the compiler skips the slot;
//   - unknown: the analysis never saw a concrete receiver (forged or
//     external pointers) — the compiler keeps the default slot.
//
// Positions use the "@fn.block#idx" vocabulary shared with the
// profiler and violation records. instrument.Apply rewrites
// instructions strictly in place, so a classification computed on the
// uninstrumented module keys correctly against the instrumented
// olr_getptr sites vm.Compile lowers.
//
// Monomorphic sites additionally get a SHARE KEY when the analysis can
// prove they all dereference the same single concrete object: the
// receiver set is one allocation site, allocated at most once (plain
// single-struct alloc, acyclic block, in a function that provably runs
// at most once). Sites sharing a key are compiled onto ONE IC slot, so
// the first access memoizes for all of them — the compile-time
// equivalent of inline-cache pre-seeding, with no new runtime
// machinery. Slot entries validate (base, class, field, generation) on
// every hit, so sharing is always safe; the runs-once proof is what
// makes it always profitable (a shared hit corresponds exactly to an
// unseeded run's resolver offset-cache hit).

// Site classification kinds, serialized by name.
const (
	SiteMonomorphic = "monomorphic"
	SitePolymorphic = "polymorphic"
	SiteUnknown     = "unknown"
)

// SiteFact classifies one fieldptr site.
type SiteFact struct {
	// Pos is the "@fn.block#idx" position, stable across instrument.Apply.
	Pos string `json:"pos"`
	// Class and Field are the access as declared at the site.
	Class string `json:"class"`
	Field int    `json:"field"`
	Kind  string `json:"kind"`
	// Receivers lists the concrete allocation sites the base may
	// address, context-stripped and sorted (heap receivers only).
	Receivers []string `json:"receivers,omitempty"`
	// ShareKey groups monomorphic sites proven to address the same
	// single runs-once object; equal keys may share one IC slot.
	ShareKey string `json:"shareKey,omitempty"`
	// Churn marks a site whose inline-cache entry provably cannot
	// survive consecutive executions: the innermost natural loop
	// containing the site also frees objects (directly or through a
	// callee), and every instrumented free advances the runtime's
	// layout generation, invalidating all IC entries at once. A slot on
	// such a site is written each iteration and dead before the next
	// reads it, so the compiler suppresses it.
	Churn bool `json:"churn,omitempty"`
}

// SiteFacts is the serializable artifact: the wire format polarlint
// -facts writes and vm.CompileOpts consumes (via CompileFacts).
type SiteFacts struct {
	Module string `json:"module"`
	// K is the call-string depth the classification was computed under.
	K     int        `json:"k"`
	Sites []SiteFact `json:"sites"`
}

// EncodeJSON renders the artifact for -facts output.
func (sf *SiteFacts) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(sf, "", "  ")
}

// DecodeSiteFacts parses a -facts artifact.
func DecodeSiteFacts(data []byte) (*SiteFacts, error) {
	var sf SiteFacts
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("analysis: parsing site facts: %w", err)
	}
	return &sf, nil
}

// ByKind counts the sites per classification kind.
func (sf *SiteFacts) ByKind() map[string]int {
	out := make(map[string]int)
	for _, s := range sf.Sites {
		out[s.Kind]++
	}
	return out
}

// CompileFacts converts the artifact into the neutral form vm.Compile
// consumes: churned sites suppress their IC slot (their entries are
// generation-invalidated before every reuse, so the slot is pure
// overhead), share keys unify slots. Everything else needs no entry —
// the compiler's default (a fresh slot) is already right for it. The
// class-purity verdict (Kind) deliberately does NOT drive suppression:
// the inline cache validates (base, class, field, generation) on every
// hit, so a class-polymorphic site with a loop-invariant receiver still
// hits almost always — suppressing on Kind alone measurably destroys
// those hits (mcf's arc sweep) while churn suppression only ever
// removes guaranteed misses.
func (sf *SiteFacts) CompileFacts() *vm.StaticFacts {
	out := &vm.StaticFacts{Sites: make(map[string]vm.SiteSeed)}
	for _, s := range sf.Sites {
		switch {
		case s.Churn:
			out.Sites[s.Pos] = vm.SiteSeed{Suppress: true}
		case s.ShareKey != "":
			out.Sites[s.Pos] = vm.SiteSeed{ShareKey: s.ShareKey}
		}
	}
	return out
}

// siteFactsPass folds every context's converged facts into one
// classification per fieldptr site.
func siteFactsPass(ip *interp) *SiteFacts {
	type acc struct {
		class     string
		field     int
		fn        string // containing function and block, for the churn test
		block     int
		sawAny    bool           // some context produced a non-empty points-to set
		conflict  bool           // some receiver is not a heap object of the class
		receivers map[string]int // concrete site key -> region index (any ctx)
	}
	accs := make(map[string]*acc)
	var order []string

	for _, fi := range ip.mi.Funcs {
		for _, cx := range ip.ctxs.contextsOf(fi.Fn.Name) {
			f := fi.Fn
			ip.replay(fi, cx, func(b, i int, in *ir.Instr, fx *regFacts) {
				if in.Op != ir.OpFieldPtr || in.Struct == nil {
					return
				}
				pos := SiteOf(f, b, i).Pos()
				a := accs[pos]
				if a == nil {
					a = &acc{class: in.Struct.Name, field: in.Field, fn: f.Name, block: b, receivers: make(map[string]int)}
					accs[pos] = a
					order = append(order, pos)
				}
				base := ip.val(fx, in.Args[0])
				if base.pts.empty() {
					return
				}
				a.sawAny = true
				base.pts.forEach(func(ri int) {
					r := ip.regions[ri]
					if r.kind != regHeap || r.class == nil || r.class.Name != a.class {
						a.conflict = true
						return
					}
					key := fmt.Sprintf("@%s#%d.%d", r.fn, r.site.Block, r.site.Index)
					a.receivers[key] = ri
				})
			})
		}
	}

	once := runsOnceFuncs(ip.mi)
	cyc := newCycleIndex(ip.mi)
	churn := newChurnIndex(ip.mi)
	sf := &SiteFacts{Module: ip.mi.M.Name, K: ip.ctxs.k}
	for _, pos := range order {
		a := accs[pos]
		fact := SiteFact{Pos: pos, Class: a.class, Field: a.field, Churn: churn.churned(a.fn, a.block)}
		for key := range a.receivers {
			fact.Receivers = append(fact.Receivers, key)
		}
		sort.Strings(fact.Receivers)
		switch {
		case !a.sawAny:
			fact.Kind = SiteUnknown
		case a.conflict:
			fact.Kind = SitePolymorphic
		default:
			fact.Kind = SiteMonomorphic
			if len(fact.Receivers) == 1 {
				r := ip.regions[a.receivers[fact.Receivers[0]]]
				if allocRunsOnce(ip.mi, r, once, cyc) {
					fact.ShareKey = fmt.Sprintf("%s#%d%s", a.class, a.field, fact.Receivers[0])
				}
			}
		}
		sf.Sites = append(sf.Sites, fact)
	}
	return sf
}

// allocRunsOnce reports whether region r's allocation site provably
// executes at most once per program run: a plain single-struct alloc,
// in a block outside every CFG cycle, in a function that runs at most
// once.
func allocRunsOnce(mi *ModuleInfo, r *region, once map[string]bool, cyc *cycleIndex) bool {
	if !once[r.fn] {
		return false
	}
	fi := mi.Func(r.fn)
	if fi == nil || r.site.Block >= len(fi.Fn.Blocks) {
		return false
	}
	in := &fi.Fn.Blocks[r.site.Block].Instrs[r.site.Index]
	if in.Op != ir.OpAlloc || in.Struct == nil || len(in.Args) != 0 {
		return false
	}
	return !cyc.cyclic(r.fn, r.site.Block)
}

// runsOnceFuncs computes the set of functions that provably execute at
// most once per program run: main when nothing in the module calls it,
// and any function whose address is never taken with exactly one
// direct call site, in an acyclic block of a runs-once caller. The set
// grows monotonically from main outward.
func runsOnceFuncs(mi *ModuleInfo) map[string]bool {
	addressTaken := make(map[string]bool)
	type callerSite struct {
		caller string
		block  int
	}
	callsTo := make(map[string][]callerSite)
	for _, f := range mi.M.Funcs {
		for bi, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op == ir.OpCall && mi.M.Func(in.Callee) != nil {
					callsTo[in.Callee] = append(callsTo[in.Callee], callerSite{f.Name, bi})
				}
				for _, a := range in.Args {
					if a.Kind == ir.ValFunc {
						addressTaken[a.Sym] = true
					}
				}
			}
		}
	}
	cyc := newCycleIndex(mi)
	once := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range mi.M.Funcs {
			if once[f.Name] || addressTaken[f.Name] {
				continue
			}
			sites := callsTo[f.Name]
			ok := false
			if f.Name == "main" {
				ok = len(sites) == 0
			} else if len(sites) == 1 {
				s := sites[0]
				ok = s.caller != f.Name && once[s.caller] && !cyc.cyclic(s.caller, s.block)
			}
			if ok {
				once[f.Name] = true
				changed = true
			}
		}
	}
	return once
}

// cycleIndex lazily answers "is block b of function fn inside a CFG
// cycle" — i.e. can b re-execute within one activation of fn.
type cycleIndex struct {
	mi   *ModuleInfo
	memo map[string][]bool
}

func newCycleIndex(mi *ModuleInfo) *cycleIndex {
	return &cycleIndex{mi: mi, memo: make(map[string][]bool)}
}

func (c *cycleIndex) cyclic(fn string, b int) bool {
	marks, ok := c.memo[fn]
	if !ok {
		marks = c.compute(fn)
		c.memo[fn] = marks
	}
	return b < len(marks) && marks[b]
}

// churnIndex decides the per-site Churn verdict: block b of fn is
// churned when the INNERMOST natural loop containing b also frees
// objects — directly (an OpFree in the loop body) or through a call to
// a function that may transitively free. The runtime advances one
// global layout generation on every instrumented free, invalidating
// every IC entry at once, so a slot inside such a loop is rewritten
// each iteration and never read while valid.
//
// Innermost matters: in `for { p = alloc; for { p.f } ; free p }` the
// inner loop is free-less and its site's entry survives the inner
// iterations — only the outer loop churns, and the site still earns
// its hits. Natural-loop bodies of a reducible CFG nest or are
// disjoint, so "smallest body containing b" is the innermost loop.
type churnIndex struct {
	mi      *ModuleInfo
	mayFree map[string]bool
	memo    map[string][]bool
}

func newChurnIndex(mi *ModuleInfo) *churnIndex {
	// May-free summaries: a function frees if it contains OpFree or
	// calls (directly, transitively) one that does. Calls to names
	// outside the module are VM builtins (input_read and friends),
	// which never free, and the IR has no indirect calls.
	mayFree := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range mi.M.Funcs {
			if mayFree[f.Name] {
				continue
			}
			for _, blk := range f.Blocks {
				for ii := range blk.Instrs {
					in := &blk.Instrs[ii]
					if in.Op == ir.OpFree || (in.Op == ir.OpCall && mayFree[in.Callee]) {
						mayFree[f.Name] = true
						changed = true
					}
				}
			}
		}
	}
	return &churnIndex{mi: mi, mayFree: mayFree, memo: make(map[string][]bool)}
}

func (c *churnIndex) churned(fn string, b int) bool {
	marks, ok := c.memo[fn]
	if !ok {
		marks = c.compute(fn)
		c.memo[fn] = marks
	}
	return b < len(marks) && marks[b]
}

// compute finds the natural loops of fn (back edges u->v with v
// dominating u, bodies flood-filled over predecessors, merged per
// header) and marks every block whose innermost containing loop frees.
func (c *churnIndex) compute(fn string) []bool {
	fi := c.mi.Func(fn)
	if fi == nil {
		return nil
	}
	n := len(fi.Fn.Blocks)
	frees := make([]bool, n)
	for bi, blk := range fi.Fn.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if in.Op == ir.OpFree || (in.Op == ir.OpCall && c.mayFree[in.Callee]) {
				frees[bi] = true
			}
		}
	}
	var bodies []map[int]bool
	byHeader := make(map[int]map[int]bool)
	for u := 0; u < n; u++ {
		if !fi.CFG.Reachable(u) {
			continue
		}
		for _, v := range fi.CFG.Succs[u] {
			if !fi.Dominates(v, u) {
				continue
			}
			body := byHeader[v]
			if body == nil {
				body = map[int]bool{v: true}
				byHeader[v] = body
				bodies = append(bodies, body)
			}
			stack := []int{u}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				for _, p := range fi.CFG.Preds[x] {
					if fi.CFG.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	marks := make([]bool, n)
	for b := 0; b < n; b++ {
		innermost := -1
		for li, body := range bodies {
			if !body[b] {
				continue
			}
			if innermost < 0 || len(body) < len(bodies[innermost]) {
				innermost = li
			}
		}
		if innermost < 0 {
			continue
		}
		for blk := range bodies[innermost] {
			if frees[blk] {
				marks[b] = true
				break
			}
		}
	}
	return marks
}

// compute marks every block that is reachable from itself via at least
// one CFG edge.
func (c *cycleIndex) compute(fn string) []bool {
	fi := c.mi.Func(fn)
	if fi == nil {
		return nil
	}
	n := len(fi.Fn.Blocks)
	marks := make([]bool, n)
	for b := 0; b < n; b++ {
		seen := make([]bool, n)
		stack := append([]int(nil), fi.CFG.Succs[b]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x == b {
				marks[b] = true
				break
			}
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, fi.CFG.Succs[x]...)
		}
	}
	return marks
}
