// Package taint implements the TaintClass framework of POLaR (§IV.B): a
// DataFlowSanitizer-analogue byte-granularity taint engine over the VM,
// plus the object-attribution layer that turns raw taint flow into the
// per-class reports of Tables I and IV.
//
// The engine labels every byte the program reads from its untrusted
// input (the input_* builtins model the instrumented fread /
// MapViewOfFile entry points) and propagates labels through loads,
// stores, arithmetic, pointer derivation and memory copies — DFSan's
// propagation rules. When a tainted value lands inside a heap object of
// known class, the class (and the specific member field) is recorded as
// input-dependent. A coarse control-taint flag per frame marks
// allocations and frees that execute under a tainted branch condition,
// approximating "life-cycle affected by untrusted input".
package taint

import (
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/vm"
)

// Label is a 64-bit taint bitmask. Bit i marks dependence on input
// region i (the default source API uses a single bit; fuzz drivers can
// assign per-chunk bits for finer provenance).
type Label = uint64

// DefaultLabel is the label applied by the input_* source hooks.
const DefaultLabel Label = 1

const shadowPageBits = 12
const shadowPageSize = 1 << shadowPageBits

// shadowMem is byte-granular label storage (DFSan's shadow memory).
// Pages exist only where a nonzero label was ever written: reads of a
// missing page return 0 and writes of label 0 to one are no-ops, so
// zero-filling (or reading) untouched memory costs no shadow space.
type shadowMem struct {
	pages map[uint64][]Label

	// lastIdx/lastPage cache the most recent lookup, misses included
	// (lastPage nil).
	lastIdx  uint64
	lastPage []Label
}

func newShadowMem() *shadowMem {
	return &shadowMem{pages: make(map[uint64][]Label), lastIdx: ^uint64(0)}
}

// page returns shadow page idx, or nil if it does not exist and create
// is false.
func (s *shadowMem) page(idx uint64, create bool) []Label {
	if idx == s.lastIdx && (s.lastPage != nil || !create) {
		return s.lastPage
	}
	p := s.pages[idx]
	if p == nil && create {
		p = make([]Label, shadowPageSize)
		s.pages[idx] = p
	}
	s.lastIdx, s.lastPage = idx, p
	return p
}

func (s *shadowMem) get(addr uint64) Label {
	if p := s.page(addr>>shadowPageBits, false); p != nil {
		return p[addr&(shadowPageSize-1)]
	}
	return 0
}

func (s *shadowMem) set(addr uint64, l Label) {
	if p := s.page(addr>>shadowPageBits, l != 0); p != nil {
		p[addr&(shadowPageSize-1)] = l
	}
}

func (s *shadowMem) rangeOr(addr uint64, n int) Label {
	var l Label
	for i := 0; i < n; i++ {
		l |= s.get(addr + uint64(i))
	}
	return l
}

// setRange labels [addr, addr+n) page by page, so a zero fill skips
// missing pages whole.
func (s *shadowMem) setRange(addr uint64, n int, l Label) {
	for n > 0 {
		lo := int(addr & (shadowPageSize - 1))
		hi := min(lo+n, shadowPageSize)
		if p := s.page(addr>>shadowPageBits, l != 0); p != nil {
			for i := lo; i < hi; i++ {
				p[i] = l
			}
		}
		addr += uint64(hi - lo)
		n -= hi - lo
	}
}

func (s *shadowMem) copyRange(dst, src uint64, n int) {
	if dst == src || n <= 0 {
		return
	}
	// Match memmove semantics over the label array.
	if dst < src {
		for i := 0; i < n; i++ {
			s.set(dst+uint64(i), s.get(src+uint64(i)))
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		s.set(dst+uint64(i), s.get(src+uint64(i)))
	}
}

// frame is the shadow register file for one call frame.
type frame struct {
	regs []Label
	// control accumulates labels of branch conditions executed in this
	// frame (inherited by callees) — the coarse implicit-flow
	// approximation described in DESIGN.md.
	control Label
}

// Engine implements vm.Hooks. Create one per execution, pass it to
// vm.New via vm.WithHooks, then Bind the VM so attribution can resolve
// addresses to objects.
type Engine struct {
	v      *vm.VM
	shadow *shadowMem
	stack  []*frame
	report *Report

	// sourceLabel is applied to input_* reads.
	sourceLabel Label

	// tel, when non-nil, receives an EvTaintUnion event each time
	// tainted bytes are attributed to a tracked object (label landing in
	// a class — the unit of Table I/IV accounting).
	tel *telemetry.Telemetry
}

// NewEngine returns a fresh engine reporting into rep (a new Report is
// created if nil).
func NewEngine(rep *Report) *Engine {
	if rep == nil {
		rep = NewReport()
	}
	return &Engine{shadow: newShadowMem(), report: rep, sourceLabel: DefaultLabel}
}

// Bind attaches the VM (must be called before the program runs).
func (e *Engine) Bind(v *vm.VM) { e.v = v }

// Report returns the accumulated object report.
func (e *Engine) Report() *Report { return e.report }

// SetSourceLabel overrides the label used for input sources.
func (e *Engine) SetSourceLabel(l Label) { e.sourceLabel = l }

// SetTelemetry attaches the observability layer (nil detaches).
func (e *Engine) SetTelemetry(t *telemetry.Telemetry) { e.tel = t }

func (e *Engine) top() *frame {
	if len(e.stack) == 0 {
		return nil
	}
	return e.stack[len(e.stack)-1]
}

func (e *Engine) taintOf(fr *frame, v ir.Value) Label {
	if fr == nil || v.Kind != ir.ValReg {
		return 0
	}
	if v.Reg >= len(fr.regs) {
		return 0
	}
	return fr.regs[v.Reg]
}

func (e *Engine) setReg(dest int, l Label) {
	fr := e.top()
	if fr == nil || dest < 0 || dest >= len(fr.regs) {
		return
	}
	fr.regs[dest] = l
}

// Enter implements vm.Hooks.
func (e *Engine) Enter(fn *ir.Func, args []ir.Value) {
	parent := e.top()
	fr := &frame{regs: make([]Label, fn.NumRegs)}
	if parent != nil {
		fr.control = parent.control
		for i := range args {
			if i >= len(fr.regs) {
				break
			}
			fr.regs[i] = e.taintOf(parent, args[i])
		}
	}
	e.stack = append(e.stack, fr)
}

// Exit implements vm.Hooks.
func (e *Engine) Exit(retArg *ir.Value, callerDest int) {
	fr := e.top()
	e.stack = e.stack[:len(e.stack)-1]
	if retArg == nil || callerDest < 0 {
		return
	}
	e.setReg(callerDest, e.taintOf(fr, *retArg))
}

// Load implements vm.Hooks.
func (e *Engine) Load(dest int, addr uint64, size int) {
	e.setReg(dest, e.shadow.rangeOr(addr, size))
}

// Store implements vm.Hooks.
func (e *Engine) Store(src ir.Value, addr uint64, size int) {
	l := e.taintOf(e.top(), src)
	e.shadow.setRange(addr, size, l)
	if l != 0 {
		e.attribute(addr, size, l)
	}
}

// Bin implements vm.Hooks.
func (e *Engine) Bin(dest int, a, b ir.Value) {
	fr := e.top()
	e.setReg(dest, e.taintOf(fr, a)|e.taintOf(fr, b))
}

// Un implements vm.Hooks.
func (e *Engine) Un(dest int, a ir.Value) {
	e.setReg(dest, e.taintOf(e.top(), a))
}

// PtrDerive implements vm.Hooks (GEP-like arithmetic keeps the base
// pointer's label, as DFSan does for getelementptr).
func (e *Engine) PtrDerive(dest int, base ir.Value) {
	e.setReg(dest, e.taintOf(e.top(), base))
}

// Memcpy implements vm.Hooks.
func (e *Engine) Memcpy(dst, src uint64, n int) {
	e.shadow.copyRange(dst, src, n)
	if l := e.shadow.rangeOr(dst, n); l != 0 {
		e.attribute(dst, n, l)
	}
}

// Memset implements vm.Hooks (constant fill clears data labels).
func (e *Engine) Memset(dst uint64, n int) {
	e.shadow.setRange(dst, n, 0)
}

// CondBr implements vm.Hooks.
func (e *Engine) CondBr(cond ir.Value) {
	fr := e.top()
	if fr == nil {
		return
	}
	fr.control |= e.taintOf(fr, cond)
}

// Alloc implements vm.Hooks: fresh chunks start untainted; an
// allocation executed under tainted control is an input-dependent
// life-cycle event.
func (e *Engine) Alloc(dest int, addr uint64, size int, st *ir.StructType) {
	e.setReg(dest, 0)
	e.shadow.setRange(addr, size, 0)
	fr := e.top()
	if st != nil && fr != nil && fr.control != 0 {
		e.report.markAlloc(st, fr.control)
	}
}

// Free implements vm.Hooks.
func (e *Engine) Free(addr uint64) {
	fr := e.top()
	if fr == nil || fr.control == 0 || e.v == nil {
		return
	}
	if st, ok := e.v.ObjectType(addr); ok {
		e.report.markFree(st, fr.control)
	}
}

// Builtin implements vm.Hooks: input_* are taint sources; other
// builtins propagate the union of argument labels to their result.
func (e *Engine) Builtin(name string, args []ir.Value, argVals []int64, ret int64, dest int) {
	fr := e.top()
	switch name {
	case "input_read":
		dst := uint64(argVals[0])
		n := int(ret)
		if n > 0 {
			e.shadow.setRange(dst, n, e.sourceLabel)
			e.attribute(dst, n, e.sourceLabel)
		}
		e.setReg(dest, e.sourceLabel)
	case "input_byte", "input_len":
		e.setReg(dest, e.sourceLabel)
	default:
		var l Label
		for _, a := range args {
			l |= e.taintOf(fr, a)
		}
		e.setReg(dest, l)
	}
}

// attribute records that tainted bytes landed in [addr, addr+n): if the
// range lies inside a tracked heap object, the owning class and the
// covered member fields are marked content-tainted.
func (e *Engine) attribute(addr uint64, n int, l Label) {
	if e.v == nil {
		return
	}
	base, _, live, ok := e.v.Heap.FindChunk(addr)
	if !ok || !live {
		return
	}
	st, ok := e.v.ObjectType(base)
	if !ok {
		return
	}
	off := int(addr - base)
	e.report.markContent(st, off, n, l)
	if e.tel != nil {
		e.tel.Emit(telemetry.Event{
			Kind: telemetry.EvTaintUnion, Addr: addr, Size: n,
			Label: l, Field: off, Detail: st.Name,
		})
	}
}

// Verify interface compliance.
var _ vm.Hooks = (*Engine)(nil)
