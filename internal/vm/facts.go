package vm

import (
	"fmt"

	"polar/internal/ir"
)

// Static inline-cache seeding (analysis-guided compilation, DESIGN.md
// §14). The static analyzer classifies every olr_getptr site; the
// compiler consumes the verdicts through CompileOpts.Facts:
//
//   - a site proven CHURNED (its innermost loop also frees, so the
//     layout generation invalidates its entry before every reuse) gets
//     no IC slot at all (ic = -1): the bytecode engine goes straight to
//     the resolver, exactly as the cache-free tree-walker does;
//   - monomorphic sites proven to address the same single runs-once
//     object (equal ShareKey) are UNIFIED onto one slot: the first
//     access memoizes the randomized offset for every sibling site —
//     compile-time cache pre-seeding with zero new runtime machinery.
//
// Neither transformation changes an observable: IC entries validate
// (base, class, field, generation) on every hit, a suppressed slot
// just replays the resolver path, and a shared-slot hit corresponds to
// the resolver's own offset-cache hit in an unseeded run. The
// seeded-vs-unseeded trace differential in internal/evalrun gates that
// byte-for-byte.
//
// The type is deliberately vm-local (the analysis package converts its
// artifact into it) so the dependency points analysis → vm and the
// taint/policy stack can keep importing vm freely.

// SiteSeed is the compiler-facing verdict for one olr_getptr site.
type SiteSeed struct {
	// Suppress removes the site's IC slot entirely.
	Suppress bool
	// ShareKey, when non-empty, unifies this site's slot with every
	// other site carrying the same key.
	ShareKey string
}

// StaticFacts maps "@fn.block#idx" source positions (the profiler's
// site vocabulary) to seeds. Sites without an entry get the default
// treatment: a fresh private IC slot.
type StaticFacts struct {
	Sites map[string]SiteSeed
}

// planICSites precomputes the IC slot of every olr_getptr call site
// from the static facts, walking the module in lowering order so slot
// numbering stays a pure function of (module, facts). Without facts
// the plan is nil and lowerOne numbers sites sequentially, as before.
func (p *Program) planICSites(facts *StaticFacts) {
	if facts == nil {
		return
	}
	p.icPlan = make(map[*ir.Instr]int32)
	shared := make(map[string]int32)
	next := int32(0)
	for _, f := range p.mod.Funcs {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op != ir.OpCall || in.Callee != olrGetptrName || len(in.Args) != 3 {
					continue
				}
				pos := fmt.Sprintf("@%s.%s#%d", f.Name, blk.Name, ii)
				seed, ok := facts.Sites[pos]
				switch {
				case ok && seed.Suppress:
					p.icPlan[in] = -1
				case ok && seed.ShareKey != "":
					slot, have := shared[seed.ShareKey]
					if !have {
						slot = next
						next++
						shared[seed.ShareKey] = slot
					}
					p.icPlan[in] = slot
				default:
					p.icPlan[in] = next
					next++
				}
			}
		}
	}
	p.numICSites = int(next)
}
