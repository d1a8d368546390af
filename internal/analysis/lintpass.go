package analysis

import (
	"fmt"
	"sort"
	"strings"

	"polar/internal/ir"
)

// The layout-compatibility lint pass: finds the idioms §VI.B of the
// paper calls out as incompatible with per-allocation layout
// randomization. Code that addresses randomized objects through raw
// pointer arithmetic instead of fieldptr (the POLaR pass rewrites only
// fieldptr), copies structs partially or across classes, or lets
// derived interior pointers outlive the operation that produced them
// will break — or silently read the wrong member — once layouts are
// randomized per allocation.

const lintPass = "lint"

// Lint rule IDs.
const (
	RulePtrAddIntoClass  = "ptradd-into-class"
	RuleElemPtrIntoClass = "elemptr-into-class"
	RuleFieldPtrMismatch = "fieldptr-class-mismatch"
	RuleMemcpyCrossClass = "memcpy-cross-class"
	RuleMemcpyPartial    = "memcpy-partial-class"
	RuleMemfillOverflow  = "memfill-overflow"
	RuleOOBStore         = "oob-store"
	RuleFieldPtrEscape   = "fieldptr-escape"
	RuleFieldPtrPastFree = "fieldptr-live-across-free"
)

// lintPassRun walks every function, under each of its analyzed calling
// contexts, with the converged facts and applies the rules. Findings
// that repeat across contexts are reported once with a context count.
func lintPassRun(ip *interp) Findings {
	var out Findings
	for _, fi := range ip.mi.Funcs {
		for _, cx := range ip.ctxs.contextsOf(fi.Fn.Name) {
			out = append(out, lintFunc(ip, fi, cx)...)
		}
	}
	return dedupeFindings(out)
}

type freeSite struct {
	block, idx int
	pts        bitset
}

func lintFunc(ip *interp, fi *FuncInfo, cx ctxID) Findings {
	var out Findings
	f := fi.Fn
	add := func(b, i int, rule string, sev Severity, class, msg string) {
		out = append(out, Finding{
			Pass: lintPass, Rule: rule, Severity: sev, Class: class,
			Site: SiteOf(f, b, i), Message: msg,
		})
	}

	// fieldptr defs (for the escape rules) and free sites (for the
	// live-across-free rule), collected in one replay.
	type fptrDef struct {
		block, idx int
		dest       int
		region     int // singleton heap-class region, or -1
		class      string
	}
	var fptrDefs []fptrDef
	var frees []freeSite

	ip.replay(fi, cx, func(b, i int, in *ir.Instr, fx *regFacts) {
		switch in.Op {
		case ir.OpPtrAdd:
			base := ip.val(fx, in.Args[0])
			if names := ip.classNamesIn(base.pts); len(names) > 0 {
				add(b, i, RulePtrAddIntoClass, SevWarn, names[0], fmt.Sprintf(
					"raw ptradd into randomized class %s bypasses fieldptr; the layout pass cannot rewrite this offset",
					nameList(names)))
			}
		case ir.OpElemPtr:
			base := ip.val(fx, in.Args[0])
			names := ip.classNamesIn(base.pts)
			// Indexing an array OF the class is fine; byte- or other-
			// typed indexing into a class interior is not.
			if st, ok := in.Type.(*ir.StructType); ok && len(names) == 1 && st.Name == names[0] {
				names = nil
			}
			if len(names) > 0 {
				add(b, i, RuleElemPtrIntoClass, SevWarn, names[0], fmt.Sprintf(
					"elemptr with element type %s indexes into randomized class %s; use fieldptr for member access",
					in.Type, nameList(names)))
			}
		case ir.OpFieldPtr:
			base := ip.val(fx, in.Args[0])
			if in.Struct != nil {
				if cls, bad := ip.fieldPtrMismatch(base.pts, in.Struct); bad {
					add(b, i, RuleFieldPtrMismatch, SevError, in.Struct.Name, fmt.Sprintf(
						"fieldptr declares class %%%s but the pointer can only address %s; with randomized layouts the offsets disagree",
						in.Struct.Name, cls))
				}
				region := -1
				if ri := base.pts.single(); ri >= 0 {
					if r := ip.regions[ri]; r.kind == regHeap && r.class != nil {
						region = ri
					}
				}
				fptrDefs = append(fptrDefs, fptrDef{
					block: b, idx: i, dest: in.Dest, region: region, class: in.Struct.Name,
				})
			}
		case ir.OpMemcpy:
			dst := ip.val(fx, in.Args[0])
			src := ip.val(fx, in.Args[1])
			dstN := ip.classNamesIn(dst.pts)
			srcN := ip.classNamesIn(src.pts)
			if len(dstN) > 0 && len(srcN) > 0 && !overlap(dstN, srcN) {
				add(b, i, RuleMemcpyCrossClass, SevWarn, dstN[0], fmt.Sprintf(
					"memcpy from class %s into class %s copies members laid out under different random orders",
					nameList(srcN), nameList(dstN)))
			}
			if n, ok := constOf(in.Args[2]); ok {
				for _, av := range []absVal{dst, src} {
					if ri := av.pts.single(); ri >= 0 && av.off == 0 {
						r := ip.regions[ri]
						if r.kind == regHeap && r.class != nil && int(n) != r.class.Size() && int(n) < r.class.Size() {
							add(b, i, RuleMemcpyPartial, SevWarn, r.class.Name, fmt.Sprintf(
								"memcpy of %d bytes covers only part of class %%%s (%d bytes); under randomization the prefix holds different members per allocation",
								n, r.class.Name, r.class.Size()))
							break
						}
					}
				}
				if msg := ip.oobFill(dst, int(n)); msg != "" {
					add(b, i, RuleMemfillOverflow, SevError, ip.classOf(dst.pts), msg)
				}
			}
		case ir.OpMemset:
			if n, ok := constOf(in.Args[2]); ok {
				dst := ip.val(fx, in.Args[0])
				if msg := ip.oobFill(dst, int(n)); msg != "" {
					add(b, i, RuleMemfillOverflow, SevError, ip.classOf(dst.pts), msg)
				}
			}
		case ir.OpStore:
			av := ip.val(fx, in.Args[1])
			if msg := ip.oobAccess(av, in.Type.Size()); msg != "" {
				add(b, i, RuleOOBStore, SevError, ip.classOf(av.pts), msg)
			}
		case ir.OpFree:
			av := ip.val(fx, in.Args[0])
			if !av.pts.empty() {
				frees = append(frees, freeSite{block: b, idx: i, pts: av.pts})
			}
		}
	})

	// Escape analysis for fieldptr results: a derived interior pointer
	// is only safe while the deriving object's layout is the one it
	// was computed against — storing it, returning it, or passing it
	// to another function extends its life beyond the access idiom the
	// instrumentation pass can see.
	before := func(ab, ai, bb, bi int) bool {
		if ab == bb {
			return ai < bi
		}
		return fi.Dominates(ab, bb)
	}
	for _, d := range fptrDefs {
		if d.dest < 0 || d.dest >= len(fi.DU.Uses) {
			continue
		}
		for _, u := range fi.DU.Uses[d.dest] {
			use := &f.Blocks[u.Block].Instrs[u.Index]
			switch {
			case use.Op == ir.OpStore && use.Args[0].Kind == ir.ValReg && use.Args[0].Reg == d.dest:
				add(u.Block, u.Index, RuleFieldPtrEscape, SevInfo, d.class,
					"fieldptr result stored to memory; the saved interior pointer encodes one allocation's layout")
			case use.Op == ir.OpRet:
				add(u.Block, u.Index, RuleFieldPtrEscape, SevInfo, d.class,
					"fieldptr result returned; the caller receives an interior pointer bound to one allocation's layout")
			case use.Op == ir.OpCall && ip.mi.M.Func(use.Callee) != nil:
				add(u.Block, u.Index, RuleFieldPtrEscape, SevInfo, d.class,
					fmt.Sprintf("fieldptr result passed to @%s; interior pointers crossing calls outlive the deriving access", use.Callee))
			}
			if d.region >= 0 {
				for _, fr := range frees {
					if fr.pts.has(d.region) &&
						before(d.block, d.idx, fr.block, fr.idx) &&
						before(fr.block, fr.idx, u.Block, u.Index) {
						add(u.Block, u.Index, RuleFieldPtrPastFree, SevWarn, d.class, fmt.Sprintf(
							"fieldptr derived at %s is used after its object may be freed at %s",
							SiteOf(f, d.block, d.idx).Pos(), SiteOf(f, fr.block, fr.idx).Pos()))
						break
					}
				}
			}
		}
	}
	return out
}

// classNamesIn returns the sorted class names of heap regions in pts.
func (ip *interp) classNamesIn(pts bitset) []string {
	seen := map[string]bool{}
	pts.forEach(func(ri int) {
		r := ip.regions[ri]
		if r.kind == regHeap && r.class != nil {
			seen[r.class.Name] = true
		}
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (ip *interp) classOf(pts bitset) string {
	if names := ip.classNamesIn(pts); len(names) > 0 {
		return names[0]
	}
	return ""
}

// fieldPtrMismatch reports a definite class confusion: the pointer's
// targets include allocation-site regions, and none of them is an
// instance of the declared struct.
func (ip *interp) fieldPtrMismatch(pts bitset, declared *ir.StructType) (string, bool) {
	sawAlloc := false
	var classes []string
	match := false
	pts.forEach(func(ri int) {
		r := ip.regions[ri]
		if r.kind == regGlobal {
			return
		}
		sawAlloc = true
		if r.class != nil && r.class.Name == declared.Name {
			match = true
		}
		if r.class != nil {
			classes = append(classes, "%"+r.class.Name)
		} else {
			classes = append(classes, "a raw buffer")
		}
	})
	if !sawAlloc || match {
		return "", false
	}
	sort.Strings(classes)
	return nameList(dedupe(classes)), true
}

// oobFill checks a constant-length fill/copy against the target
// region's static size. Definite only: singleton target, known size,
// known offset.
func (ip *interp) oobFill(av absVal, n int) string {
	ri := av.pts.single()
	if ri < 0 || av.off < 0 || n <= 0 {
		return ""
	}
	r := ip.regions[ri]
	if r.size < 0 || av.off+n <= r.size {
		return ""
	}
	return fmt.Sprintf("fill of %d bytes at offset %d overruns %s (%d bytes)", n, av.off, r.describe(), r.size)
}

// oobAccess checks a fixed-size store against the target bounds.
func (ip *interp) oobAccess(av absVal, size int) string {
	ri := av.pts.single()
	if ri < 0 || av.off < 0 || size <= 0 {
		return ""
	}
	r := ip.regions[ri]
	if r.size < 0 || av.off+size <= r.size {
		return ""
	}
	return fmt.Sprintf("%d-byte store at offset %d overruns %s (%d bytes)", size, av.off, r.describe(), r.size)
}

func overlap(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func dedupe(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func nameList(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		if strings.HasPrefix(n, "%") || strings.Contains(n, " ") {
			quoted[i] = n
		} else {
			quoted[i] = "%" + n
		}
	}
	return strings.Join(quoted, ", ")
}
