package vm

import (
	"sort"

	"polar/internal/ir"
	"polar/internal/telemetry/profile"
)

// Profile-guided fusion selection. The hot-site profiler (PR 2) counts
// executed source instructions per block under the exact "@fn.block"
// site names the Program publishes; a profile exported from a prior run
// (profile.PGO) therefore weights every basic block of the module by
// its real dynamic cost. The selector below ranks straight-line runs of
// fusable instructions by that weight — or by a static loop-nesting
// estimate when no profile is given — and the lowering in lower.go
// collapses each selected run into a single dispatch.
//
// The plan is a pure function of (module, profile, topK): candidate
// enumeration walks blocks in order, ranking breaks ties by position,
// and the output ranges are re-sorted by position per block. Same
// profile + same module → byte-identical lowered code, which the
// Program fingerprint test pins (PGO determinism).

// CompileOpts selects the optimization inputs for Program compilation.
// The zero value means "no profile, fuse every candidate run" — the
// default static pipeline.
type CompileOpts struct {
	// Profile supplies dynamic block weights for fusion ranking. Nil
	// falls back to the static loop-depth estimate.
	Profile *profile.PGO
	// FusionTopK bounds generalized fusion: 0 fuses every candidate
	// run, K>0 fuses only the K hottest runs (classic pair fusion still
	// applies elsewhere), and K<0 disables generalized fusion entirely,
	// reproducing the historical three-pair peephole.
	FusionTopK int
	// Facts carries the static site classification for inline-cache
	// seeding (facts.go): churned sites lose their IC slot, proven
	// single-object monomorphic sites share one. Nil keeps the default
	// one-fresh-slot-per-site numbering.
	Facts *StaticFacts
}

// fusableIR reports whether a source instruction may join a fused run:
// straight-line register/memory/arithmetic work plus the block
// terminators. Ops with side channels beyond registers, memory and
// Stats.FieldAccess (alloc, local, free, memcpy, memset, calls, rets)
// stay un-fused so the micro loop needs no telemetry or accounting
// hooks. Cross-block runs are never formed: fuel-exhaustion errors name
// the block, so a run must not outlive its block's accounting.
func fusableIR(op ir.Op) bool {
	switch op {
	case ir.OpLoad, ir.OpStore, ir.OpFieldPtr, ir.OpElemPtr, ir.OpPtrAdd,
		ir.OpBin, ir.OpFBin, ir.OpCmp, ir.OpFCmp, ir.OpItoF, ir.OpFtoI,
		ir.OpMov, ir.OpBr, ir.OpCondBr:
		return true
	}
	return false
}

// fusionRun is one candidate: instructions [lo,hi) of a block, weighted
// by the block's dynamic (or estimated) execution count times the
// dispatches saved per execution.
type fusionRun struct {
	fn, blk, lo, hi int
	w               uint64
}

// fusionPlan maps (function, block) to the selected runs, sorted by
// start index. A nil byFunc disables generalized fusion.
type fusionPlan struct {
	byFunc [][][][2]int
}

// runsFor returns the per-block selected runs of function fi (nil when
// generalized fusion is off or nothing was selected there).
func (p fusionPlan) runsFor(fi int) [][][2]int {
	if p.byFunc == nil || fi >= len(p.byFunc) {
		return nil
	}
	return p.byFunc[fi]
}

// buildFusionPlan enumerates maximal fusable runs, weights them from
// the profile (falling back to static loop-depth weights per function),
// keeps the topK hottest when bounded, and lays the survivors out per
// block for the fuser.
func buildFusionPlan(m *ir.Module, opts CompileOpts) fusionPlan {
	if opts.FusionTopK < 0 {
		return fusionPlan{}
	}
	var runs []fusionRun
	for fi, f := range m.Funcs {
		weights := blockWeights(f, opts.Profile)
		for bi, blk := range f.Blocks {
			lo := -1
			flush := func(hi int) {
				if lo >= 0 && hi-lo >= 2 {
					runs = append(runs, fusionRun{
						fn: fi, blk: bi, lo: lo, hi: hi,
						// Dispatches saved per block execution is
						// (len-1); weighting by it prefers long hot
						// runs under a topK budget.
						w: weights[bi] * uint64(hi-lo-1),
					})
				}
				lo = -1
			}
			for ii := range blk.Instrs {
				if fusableIR(blk.Instrs[ii].Op) {
					if lo < 0 {
						lo = ii
					}
				} else {
					flush(ii)
				}
			}
			flush(len(blk.Instrs))
		}
	}
	if k := opts.FusionTopK; k > 0 && len(runs) > k {
		// Hottest first; position breaks ties so the selection is a
		// pure function of (module, profile, k).
		sort.Slice(runs, func(i, j int) bool {
			a, b := runs[i], runs[j]
			if a.w != b.w {
				return a.w > b.w
			}
			if a.fn != b.fn {
				return a.fn < b.fn
			}
			if a.blk != b.blk {
				return a.blk < b.blk
			}
			return a.lo < b.lo
		})
		runs = runs[:k]
	}
	plan := fusionPlan{byFunc: make([][][][2]int, len(m.Funcs))}
	for fi, f := range m.Funcs {
		plan.byFunc[fi] = make([][][2]int, len(f.Blocks))
	}
	for _, r := range runs {
		plan.byFunc[r.fn][r.blk] = append(plan.byFunc[r.fn][r.blk], [2]int{r.lo, r.hi})
	}
	for _, fn := range plan.byFunc {
		for _, sel := range fn {
			sort.Slice(sel, func(i, j int) bool { return sel[i][0] < sel[j][0] })
		}
	}
	return plan
}

// blockWeights returns one dynamic weight per block of f: measured
// cycles from the profile when it covers the function, otherwise the
// static loop-nesting estimate.
func blockWeights(f *ir.Func, pgo *profile.PGO) []uint64 {
	w := make([]uint64, len(f.Blocks))
	if pgo != nil && len(pgo.Weights) > 0 {
		covered := false
		for bi, blk := range f.Blocks {
			if c, ok := pgo.Weights["@"+f.Name+"."+blk.Name]; ok {
				w[bi] = c
				covered = true
			}
		}
		if covered {
			return w
		}
		// A function the profiled run never entered still fuses by the
		// static estimate — a partial profile must not deoptimize cold
		// code below the no-profile baseline.
	}
	for bi, d := range loopDepths(f) {
		if d > 6 {
			d = 6
		}
		w[bi] = 1 << (3 * uint(d))
	}
	return w
}

// loopDepths estimates the loop-nesting depth of every block: iterative
// dominators (Cooper-Harvey-Kennedy over the CFG's reverse postorder),
// back edges u→v where v dominates u, and the union of each header's
// natural loops. Unreachable blocks get depth 0.
func loopDepths(f *ir.Func) []int {
	n := len(f.Blocks)
	depth := make([]int, n)
	cfg := ir.BuildCFG(f)
	rpo := cfg.ReversePostorder()
	if len(rpo) == 0 {
		return depth
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	entry := rpo[0]
	idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for cfg.RPOIndex(a) > cfg.RPOIndex(b) {
				a = idom[a]
			}
			for cfg.RPOIndex(b) > cfg.RPOIndex(a) {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := -1
			for _, p := range cfg.Preds[b] {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	dominates := func(v, u int) bool {
		for u != v {
			if idom[u] < 0 || idom[u] == u {
				return false
			}
			u = idom[u]
		}
		return true
	}
	// Natural loops, merged per header so multiple back edges to one
	// header count as one loop, then nesting = memberships.
	bodies := make(map[int]map[int]bool)
	for _, u := range rpo {
		for _, v := range cfg.Succs[u] {
			if !cfg.Reachable(v) || !dominates(v, u) {
				continue
			}
			body := bodies[v]
			if body == nil {
				body = map[int]bool{v: true}
				bodies[v] = body
			}
			stack := []int{u}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				for _, p := range cfg.Preds[x] {
					if cfg.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, body := range bodies {
		for b := range body {
			depth[b]++
		}
	}
	return depth
}
