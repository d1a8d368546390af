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

// rangeOr returns the union of the labels of [addr, addr+n), a page at
// a time.
func (s *shadowMem) rangeOr(addr uint64, n int) Label {
	var l Label
	for n > 0 {
		lo := int(addr & (shadowPageSize - 1))
		hi := min(lo+n, shadowPageSize)
		if p := s.page(addr>>shadowPageBits, false); p != nil {
			for _, x := range p[lo:hi] {
				l |= x
			}
		}
		addr += uint64(hi - lo)
		n -= hi - lo
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
			fill(p[lo:hi], l)
		}
		addr += uint64(hi - lo)
		n -= hi - lo
	}
}

// fill sets every label of p to l.
func fill(p []Label, l Label) {
	for i := range p {
		p[i] = l
	}
}

// copyRange copies the labels of [src, src+n) to [dst, dst+n) with
// memmove semantics, in chunks that stay inside one source and one
// destination page. Chunks run front to back when dst < src and back to
// front otherwise, so no chunk reads labels an earlier chunk wrote. A
// destination page is only created for a chunk carrying a nonzero
// label.
func (s *shadowMem) copyRange(dst, src uint64, n int) {
	if dst == src || n <= 0 {
		return
	}
	forward := dst < src
	for n > 0 {
		var d, sr uint64
		var k int
		if forward {
			d, sr = dst, src
			k = min(n, shadowPageSize-int(d&(shadowPageSize-1)), shadowPageSize-int(sr&(shadowPageSize-1)))
			dst += uint64(k)
			src += uint64(k)
		} else {
			de, se := dst+uint64(n), src+uint64(n)
			k = min(n, int((de-1)&(shadowPageSize-1))+1, int((se-1)&(shadowPageSize-1))+1)
			d, sr = de-uint64(k), se-uint64(k)
		}
		n -= k
		so := int(sr & (shadowPageSize - 1))
		sp := s.page(sr>>shadowPageBits, false)
		var from []Label
		if sp != nil {
			from = sp[so : so+k]
		}
		nonzero := false
		for _, x := range from {
			if x != 0 {
				nonzero = true
				break
			}
		}
		do := int(d & (shadowPageSize - 1))
		dp := s.page(d>>shadowPageBits, nonzero)
		if dp == nil {
			continue
		}
		if nonzero {
			copy(dp[do:do+k], from)
		} else {
			fill(dp[do:do+k], 0)
		}
	}
}

// frame is one call frame's slice of the engine's flat label stack.
type frame struct {
	// base is the frame's first register label in Engine.labels.
	base int
	// control accumulates labels of branch conditions executed in this
	// frame (inherited by callees) — the coarse implicit-flow
	// approximation described in DESIGN.md.
	control Label
}

// Engine implements vm.Hooks. Create one per execution, pass it to
// vm.New via vm.WithHooks, then Bind the VM so attribution can resolve
// addresses to objects.
//
// The shadow register files of all live frames share one flat label
// stack; the top frame's registers and record are cached, so a call
// pushes a frame without allocating once the stack has grown.
type Engine struct {
	v      *vm.VM
	shadow *shadowMem
	report *Report

	labels []Label
	frames []frame
	// regs and top cache the current frame's labels and record (nil
	// outside any frame).
	regs []Label
	top  *frame

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

// taintOf is the label of register r of the current frame (0 for
// vm.NoReg or outside any frame).
func (e *Engine) taintOf(r int32) Label {
	if uint(r) < uint(len(e.regs)) {
		return e.regs[r]
	}
	return 0
}

func (e *Engine) setReg(dest int, l Label) {
	if uint(dest) < uint(len(e.regs)) {
		e.regs[dest] = l
	}
}

// control is the current frame's control label.
func (e *Engine) control() Label {
	if e.top == nil {
		return 0
	}
	return e.top.control
}

// Enter implements vm.Hooks.
func (e *Engine) Enter(fn *ir.Func, args []int32) {
	base := len(e.labels)
	n := fn.NumRegs
	e.labels = append(e.labels, make([]Label, n)...) // zeroed, no temporary
	regs := e.labels[base : base+n : base+n]
	control := Label(0)
	if e.top != nil {
		caller := e.labels[e.top.base:base]
		for i, a := range args {
			if i >= n {
				break
			}
			if uint(a) < uint(len(caller)) {
				regs[i] = caller[a]
			}
		}
		control = e.top.control
	}
	e.frames = append(e.frames, frame{base: base, control: control})
	e.regs, e.top = regs, &e.frames[len(e.frames)-1]
}

// Exit implements vm.Hooks.
func (e *Engine) Exit(ret int32, callerDest int) {
	l := e.taintOf(ret)
	e.labels = e.labels[:e.top.base]
	e.frames = e.frames[:len(e.frames)-1]
	if len(e.frames) == 0 {
		e.regs, e.top = nil, nil
		return
	}
	e.top = &e.frames[len(e.frames)-1]
	e.regs = e.labels[e.top.base:len(e.labels):len(e.labels)]
	e.setReg(callerDest, l)
}

// Load implements vm.Hooks.
func (e *Engine) Load(dest int, addr uint64, size int) {
	e.setReg(dest, e.shadow.rangeOr(addr, size))
}

// Store implements vm.Hooks.
func (e *Engine) Store(src int32, addr uint64, size int) {
	l := e.taintOf(src)
	e.shadow.setRange(addr, size, l)
	if l != 0 {
		e.attribute(addr, size, l)
	}
}

// Bin implements vm.Hooks.
func (e *Engine) Bin(dest int, a, b int32) {
	e.setReg(dest, e.taintOf(a)|e.taintOf(b))
}

// Un implements vm.Hooks.
func (e *Engine) Un(dest int, a int32) {
	e.setReg(dest, e.taintOf(a))
}

// PtrDerive implements vm.Hooks (GEP-like arithmetic keeps the base
// pointer's label, as DFSan does for getelementptr).
func (e *Engine) PtrDerive(dest int, base int32) {
	e.setReg(dest, e.taintOf(base))
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
func (e *Engine) CondBr(cond int32) {
	if e.top != nil {
		e.top.control |= e.taintOf(cond)
	}
}

// Alloc implements vm.Hooks: fresh chunks start untainted; an
// allocation executed under tainted control is an input-dependent
// life-cycle event.
func (e *Engine) Alloc(dest int, addr uint64, size int, st *ir.StructType) {
	e.setReg(dest, 0)
	e.shadow.setRange(addr, size, 0)
	if c := e.control(); st != nil && c != 0 {
		e.report.markAlloc(st, c)
	}
}

// Free implements vm.Hooks.
func (e *Engine) Free(addr uint64, st *ir.StructType) {
	if c := e.control(); st != nil && c != 0 {
		e.report.markFree(st, c)
	}
}

// Builtin implements vm.Hooks: input_* are taint sources; other
// builtins propagate the union of argument labels to their result.
func (e *Engine) Builtin(name string, args []int32, argVals []int64, ret int64, dest int) {
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
			l |= e.taintOf(a)
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
