package vm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"polar/internal/heap"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/telemetry/profile"
)

// Execution error sentinels.
var (
	ErrFuelExhausted = errors.New("vm: instruction budget exhausted")
	ErrStackOverflow = errors.New("vm: stack overflow")
	ErrUnknownFunc   = errors.New("vm: unknown function")
	ErrDivByZero     = errors.New("vm: integer division by zero")
)

// Stats counts dynamic events for the whole program run.
type Stats struct {
	Instructions uint64
	Allocs       uint64
	Frees        uint64
	Memcpys      uint64
	FieldAccess  uint64 // OpFieldPtr executions (instrumented or not)
	Calls        uint64
	MaxDepth     int
}

// Hooks receives fine-grained execution events; the taint engine
// implements it. All methods are invoked after the VM has performed the
// operation. A nil Hooks disables tracing with no overhead beyond a nil
// check.
type Hooks interface {
	// Enter is called when a frame is pushed; args are the caller-frame
	// operands (so the hook can transfer operand taints to parameters).
	Enter(fn *ir.Func, args []ir.Value)
	// Exit is called when a frame is popped. retArg is the callee-frame
	// return operand (nil for void) and callerDest the caller register
	// receiving the result (-1 if discarded).
	Exit(retArg *ir.Value, callerDest int)
	// Load: dest register received size bytes from addr.
	Load(dest int, addr uint64, size int)
	// Store: operand src was written to addr (size bytes).
	Store(src ir.Value, addr uint64, size int)
	// Bin: dest = a op b (integer or float).
	Bin(dest int, a, b ir.Value)
	// Un: dest = f(a) for mov/itof/ftoi.
	Un(dest int, a ir.Value)
	// FieldPtr/ElemPtr/PtrAdd: dest derives from pointer operand base.
	PtrDerive(dest int, base ir.Value)
	// Memcpy after the copy; Memset after the fill.
	Memcpy(dst, src uint64, n int)
	Memset(dst uint64, n int)
	// CondBr observes the branch condition (for control-taint).
	CondBr(cond ir.Value)
	// Alloc observes a heap object birth (st may be nil for raw buffers).
	Alloc(dest int, addr uint64, size int, st *ir.StructType)
	// Free observes a heap object death.
	Free(addr uint64)
	// Builtin is called after a VM builtin ran; argVals are the resolved
	// integer arguments, ret the result, dest the receiving register
	// (-1 if none).
	Builtin(name string, args []ir.Value, argVals []int64, ret int64, dest int)
}

// Builtin is a native function callable from IR. Args arrive as resolved
// 64-bit values.
type Builtin func(c *Call) (int64, error)

// Call packages the VM state handed to builtins.
type Call struct {
	VM   *VM
	Name string
	Args []int64
	// RawArgs are the unresolved operands (register identity matters to
	// the POLaR runtime for type info recovery; the taint engine also
	// sees them via Hooks.Builtin).
	RawArgs []ir.Value

	// fn/blk locate the call instruction for diagnostics (see Site).
	fn  *ir.Func
	blk *ir.Block

	// ic is the call site's inline layout-cache slot plus one (0 = the
	// site carries no cache), so the zero Call is inert. Builtins opt
	// into memoization via Memoize.
	ic int32
}

// Site returns the instruction site of the call as "@fn.block" (empty
// when unknown). The POLaR runtime stamps violation records with it and
// the hot-site profiler attributes member accesses by it; the string is
// interned once per block in the Program, so repeated resolutions never
// reallocate.
func (c *Call) Site() string {
	if c == nil || c.fn == nil || c.blk == nil {
		return ""
	}
	if c.VM != nil && c.VM.prog != nil {
		if s := c.VM.prog.SiteName(c.blk); s != "" {
			return s
		}
	}
	return "@" + c.fn.Name + "." + c.blk.Name
}

// Arg returns argument i or 0 if absent.
func (c *Call) Arg(i int) int64 {
	if i < 0 || i >= len(c.Args) {
		return 0
	}
	return c.Args[i]
}

// Memoize installs the current olr_getptr resolution into the call
// site's inline layout cache: the next access at this site with the
// same (base, field, class) under the same layout generation skips the
// builtin entirely (both engines). The resolver must only call this on
// clean resolutions — a live, correctly-typed object whose offset will
// stay valid until the generation counter next advances. A no-op when
// the site carries no cache slot or no cache is installed.
func (c *Call) Memoize(off int64) {
	if c == nil || c.ic <= 0 || c.VM == nil || c.VM.icGen == nil || len(c.Args) < 3 {
		return
	}
	c.VM.icSlots[c.ic-1] = icEntry{
		base:  uint64(c.Args[0]),
		field: c.Args[1],
		class: uint64(c.Args[2]),
		off:   off,
		gen:   *c.VM.icGen,
	}
}

const (
	defaultFuel  = 4_000_000_000
	maxCallDepth = 512
	coverageSize = 1 << 16
)

// VM is one execution instance of a Program. A single VM is not safe
// for concurrent use — run one VM per goroutine — but many VMs stamped
// from the same Program may run concurrently.
type VM struct {
	Mod   *ir.Module
	Mem   *Memory
	Heap  *heap.Allocator
	Stats Stats
	// Perf holds engine-strategy counters (inline-cache traffic, fused
	// dispatches). They live outside Stats on purpose: Stats is held to
	// struct equality across engines by the differential suite, while
	// Perf legitimately differs (the tree-walker never fuses).
	Perf Perf

	// prog is the shared immutable Program this instance executes.
	prog *Program

	hooks    Hooks
	builtins map[string]Builtin

	// engine selects the execution strategy (see engine.go).
	engine Engine

	// builtinSlots is the bytecode engine's callee table: index = the
	// Program's compile-time slot for a builtin name, value = the
	// implementation RegisterBuiltin installed (nil = not registered,
	// faults like an unknown function).
	builtinSlots []Builtin

	// callBinds caches the legacy engine's callee resolution per call
	// instruction (module function or builtin), replacing two string-map
	// lookups per call with one pointer-map hit. RegisterBuiltin drops
	// the cache so re-registration keeps working.
	callBinds map[*ir.Instr]boundCallee

	// Per-call-site inline layout caches (nil/zero unless the compiled
	// module has olr_getptr sites and a layout runtime installed the
	// protocol): icSlots holds one entry per numbered site, icGen points
	// at the runtime's layout-generation counter (entries from an older
	// generation never hit; the counter starts at 1 so zeroed entries
	// are invalid), and icHit replays the runtime's fast-path
	// observables on a hit so both engines' event/trace streams stay
	// identical to a resolver fast-path resolution.
	icSlots []icEntry
	icGen   *uint64
	icHit   func(site string, base uint64, field int64, class uint64, off int64)

	input  []byte
	output []byte

	fuel     uint64
	fuelLeft uint64

	coverage []byte
	covOn    bool

	stackTop   uint64
	depth      int
	quarantine int
	heapRand   int64

	// objects maps live heap object base -> static struct type for every
	// typed allocation (instrumented or not); used by taint attribution
	// and diagnostics.
	objects map[uint64]*ir.StructType

	framePool   [][]int64
	argvScratch []int64
	callScratch Call

	// instrLog is the instruction tracer (nil unless WithTrace); the
	// line format is owned by telemetry.InstrLog.
	instrLog *telemetry.InstrLog
	// tel is the observability layer (nil = disabled; every emission is
	// guarded by one nil check).
	tel *telemetry.Telemetry

	// prof is the hot-site profiler (nil unless WithProfiler); profSites
	// caches the per-block counter cells so the steady-state cost is one
	// map hit per basic-block entry, not per instruction. The cells are
	// per-instance because the profiler is an instance option; the site
	// strings they key on are interned once in the Program.
	prof      *profile.SiteProfiler
	profSites map[*ir.Block]*profile.SiteCounts

	// xt is the deterministic execution-trace writer (nil unless
	// WithExecTrace). xtBlocks/xtFuncs cache precomputed block-record
	// frame words / interned function ids per instance; the maps are
	// per-instance but the Writer assigns ids in first-use order, which
	// both engines reach identically — that is what makes cross-engine
	// traces byte-comparable. Both engines hook it directly; attaching
	// a trace does NOT force the legacy engine (see useBytecode).
	xt       *exectrace.Writer
	xtBlocks map[*ir.Func][]uint32
	xtFuncs  map[*ir.Func]uint32
}

// xtEnter records entry into fn on the execution trace and returns
// fn's per-block table of precomputed exectrace.BlockFrame words for
// the dispatch loop to index by block number — a slice access plus an
// inlined 4-byte append per block entry instead of a map probe and an
// encoder, which is what keeps tracing inside its <5% budget. First
// entry into a function interns its name and every block site in one
// program-order batch; both engines enter functions identically, so
// the interning order (part of the determinism contract) is too.
func (v *VM) xtEnter(fn *ir.Func) []uint32 {
	id, ok := v.xtFuncs[fn]
	if !ok {
		id = v.xt.Intern("@" + fn.Name)
		v.xtFuncs[fn] = id
	}
	frames, ok := v.xtBlocks[fn]
	if !ok {
		frames = make([]uint32, len(fn.Blocks))
		for i, b := range fn.Blocks {
			frames[i] = exectrace.BlockFrame(v.xt.Intern(v.prog.SiteName(b)))
		}
		v.xtBlocks[fn] = frames
	}
	v.xt.Call(id)
	return frames
}

// traceInstr emits one trace line (called only when tracing is on).
func (v *VM) traceInstr(fn *ir.Func, blk *ir.Block, in *ir.Instr) {
	v.instrLog.Emit(fn.Name, blk.Name, ir.FormatInstr(fn, in))
}

// Option configures a VM.
type Option func(*VM)

// WithInput sets the untrusted program input (read via input_* builtins).
func WithInput(b []byte) Option {
	return func(v *VM) { v.input = append([]byte(nil), b...) }
}

// WithFuel bounds the number of executed instructions.
func WithFuel(n uint64) Option {
	return func(v *VM) { v.fuel = n }
}

// WithHooks attaches a tracer (taint engine).
func WithHooks(h Hooks) Option {
	return func(v *VM) { v.hooks = h }
}

// WithCoverage enables the edge-coverage bitmap (used by the fuzzer).
func WithCoverage() Option {
	return func(v *VM) { v.covOn = true }
}

// WithQuarantine configures the heap quarantine length.
func WithQuarantine(n int) Option {
	return func(v *VM) { v.quarantine = n }
}

// WithHeapRand enables inter-chunk placement randomization in the
// simulated heap (§VII.B's class of defenses; seed 0 disables).
func WithHeapRand(seed int64) Option {
	return func(v *VM) { v.heapRand = seed }
}

// WithTrace streams every executed instruction to w as
// "@fn.block\tinstr" lines, stopping after maxLines (0 = unlimited).
// Tracing is a debugging facility; it slows execution substantially.
// The stream is produced by a telemetry.InstrLog; the text format and
// this option's signature are stable.
func WithTrace(w io.Writer, maxLines int) Option {
	return func(v *VM) { v.instrLog = telemetry.NewInstrLog(w, maxLines) }
}

// WithTelemetry attaches the observability layer: the VM (and the heap
// it creates) emit events and metrics into t. A nil t disables
// telemetry with no overhead beyond a nil check.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(v *VM) { v.tel = t }
}

// WithProfiler attaches a hot-site profiler: each "@fn.block" site is
// charged the instructions actually executed in that block, in both
// engines — early exits (a mid-block ret, a fault, fuel exhaustion)
// charge only the executed prefix, and instructions a callee runs are
// charged to the callee's sites, not the call site. Summed over all
// sites the cycle counts equal Stats.Instructions exactly.
// A nil p disables profiling with no overhead beyond a nil check.
func WithProfiler(p *profile.SiteProfiler) Option {
	return func(v *VM) { v.prof = p }
}

// WithExecTrace attaches a deterministic execution-trace writer: both
// engines record block entries and calls directly (the trace is not an
// instruction log — block granularity keeps the overhead inside the
// <5% budget), and NewInstance subscribes the writer to the telemetry
// bus (when one is attached) for allocation, fuel-checkpoint and
// violation records. A nil w disables tracing with no overhead beyond
// a nil check. The writer is single-owner, like the VM itself: give
// every concurrently running VM its own writer.
func WithExecTrace(w *exectrace.Writer) Option {
	return func(v *VM) { v.xt = w }
}

// ExecTrace returns the attached execution-trace writer (may be nil).
func (v *VM) ExecTrace() *exectrace.Writer { return v.xt }

// Profiler returns the attached hot-site profiler (may be nil).
func (v *VM) Profiler() *profile.SiteProfiler { return v.prof }

// Telemetry returns the attached observability layer (may be nil).
func (v *VM) Telemetry() *telemetry.Telemetry { return v.tel }

// New prepares a VM for the module: validates it, lays out globals and
// creates the heap. It is the single-run compatibility wrapper over the
// Program/Instance split — callers that execute a module more than once
// should Compile it once and stamp NewInstance per run instead.
func New(m *ir.Module, opts ...Option) (*VM, error) {
	p, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return p.NewInstance(opts...)
}

// RegisterBuiltin installs (or replaces) a native function. The POLaR
// runtime uses this to provide the olr_* ABI. Registration also binds
// the builtin into the bytecode engine's callee table (when the
// compiled module calls the name) and invalidates the legacy engine's
// call-site bindings.
func (v *VM) RegisterBuiltin(name string, fn Builtin) {
	v.builtins[name] = fn
	if idx, ok := v.prog.builtinSlot[name]; ok {
		v.builtinSlots[idx] = fn
	}
	v.callBinds = nil
	// A re-registered olr_getptr must see every call again: zeroed
	// entries carry generation 0, which no installed runtime's counter
	// (starting at 1) ever matches.
	for i := range v.icSlots {
		v.icSlots[i] = icEntry{}
	}
}

// icEntry is one per-call-site inline layout-cache slot: the last clean
// olr_getptr resolution at that site, valid while the runtime's layout
// generation still equals gen.
type icEntry struct {
	base  uint64
	class uint64
	field int64
	off   int64
	gen   uint64
}

// InstallLayoutCache arms the per-call-site inline layout caches: gen
// is the runtime's layout-generation counter (bumped whenever any
// memoized offset may have gone stale — free, layout-changing copy,
// rerandomize), and onHit replays the runtime's fast-path observables
// (counters, events, trace record) for a served hit. The protocol is
// engine-independent; with hooks attached the caches stay cold so
// Hooks.Builtin still observes every call.
func (v *VM) InstallLayoutCache(gen *uint64, onHit func(site string, base uint64, field int64, class uint64, off int64)) {
	v.icGen = gen
	v.icHit = onHit
}

// Program returns the shared immutable Program this VM executes.
func (v *VM) Program() *Program { return v.prog }

// GlobalAddr returns the address of a module global.
func (v *VM) GlobalAddr(name string) (uint64, bool) {
	a, ok := v.prog.globals[name]
	return a, ok
}

// Input returns the program input bytes.
func (v *VM) Input() []byte { return v.input }

// Output returns everything the program printed.
func (v *VM) Output() []byte { return v.output }

// Coverage returns the edge-coverage bitmap (nil unless WithCoverage).
func (v *VM) Coverage() []byte { return v.coverage }

// ObjectType returns the static struct type recorded for a live heap
// object base address.
func (v *VM) ObjectType(base uint64) (*ir.StructType, bool) {
	st, ok := v.objects[base]
	return st, ok
}

// TrackObject records (or re-records) the struct type of a heap object;
// the POLaR runtime calls this from olr_malloc so taint attribution
// keeps working on instrumented binaries.
func (v *VM) TrackObject(base uint64, st *ir.StructType) { v.objects[base] = st }

// UntrackObject removes object tracking at free time.
func (v *VM) UntrackObject(base uint64) { delete(v.objects, base) }

// TrackedBases returns the base addresses of every tracked live object
// in ascending order. The sort matters: the stateless rekey walk emits
// per-object events, and map iteration order must not leak into the
// event or trace streams (they are byte-identical per seed).
func (v *VM) TrackedBases() []uint64 {
	out := make([]uint64, 0, len(v.objects))
	for base := range v.objects {
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Hooks returns the attached tracer (may be nil).
func (v *VM) HooksAttached() Hooks { return v.hooks }

// Run executes @main with the given integer arguments.
func (v *VM) Run(args ...int64) (int64, error) {
	return v.runEntry("main", args)
}

// CallFunc executes an arbitrary module function with integer arguments.
func (v *VM) CallFunc(name string, args ...int64) (int64, error) {
	return v.runEntry(name, args)
}

// runEntry dispatches one top-level execution on whichever engine is
// active, bracketing it with fuel-checkpoint events when telemetry is
// attached. The checkpoints are engine-independent (both engines share
// this entry and maintain exact fuel parity), so event streams stay
// identical across engines.
func (v *VM) runEntry(name string, args []int64) (int64, error) {
	if v.tel != nil {
		v.tel.Emit(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: int(v.fuelLeft), Detail: "run-start"})
	}
	ret, err := v.dispatchEntry(name, args)
	if v.tel != nil {
		v.tel.Emit(telemetry.Event{Kind: telemetry.EvFuelCheckpoint, Size: int(v.fuelLeft), Detail: "run-end"})
	}
	return ret, err
}

func (v *VM) dispatchEntry(name string, args []int64) (int64, error) {
	if v.useBytecode() {
		idx, ok := v.prog.funcIdx[name]
		if !ok {
			if name == "main" {
				return 0, ir.ErrNoMain
			}
			return 0, fmt.Errorf("%w: @%s", ErrUnknownFunc, name)
		}
		return v.callBC(v.prog.bcFuncs[idx], args)
	}
	f := v.prog.Func(name)
	if f == nil {
		if name == "main" {
			return 0, ir.ErrNoMain
		}
		return 0, fmt.Errorf("%w: @%s", ErrUnknownFunc, name)
	}
	ops := make([]ir.Value, len(args))
	for i, a := range args {
		ops[i] = ir.Const(a)
	}
	return v.call(f, ops, nil, -1)
}

func (v *VM) getFrame(n int) []int64 {
	if l := len(v.framePool); l > 0 {
		fr := v.framePool[l-1]
		v.framePool = v.framePool[:l-1]
		if cap(fr) >= n {
			fr = fr[:n]
			for i := range fr {
				fr[i] = 0
			}
			return fr
		}
	}
	return make([]int64, n)
}

func (v *VM) putFrame(fr []int64) {
	if len(v.framePool) < 64 {
		v.framePool = append(v.framePool, fr)
	}
}

// call runs fn to completion. callerRegs/callerDest link results back;
// callerRegs is nil for top-level entries.
func (v *VM) call(fn *ir.Func, args []ir.Value, callerRegs []int64, callerDest int) (int64, error) {
	if v.depth >= maxCallDepth {
		return 0, fmt.Errorf("%w in @%s", ErrStackOverflow, fn.Name)
	}
	v.depth++
	if v.depth > v.Stats.MaxDepth {
		v.Stats.MaxDepth = v.depth
	}
	v.Stats.Calls++
	var xtFrames []uint32
	if v.xt != nil {
		xtFrames = v.xtEnter(fn)
	}
	savedStack := v.stackTop
	regs := v.getFrame(fn.NumRegs)
	defer func() {
		v.putFrame(regs)
		v.stackTop = savedStack
		v.depth--
	}()
	for i := range args {
		if i >= len(fn.Params) {
			break
		}
		regs[i] = v.resolve(callerRegs, args[i])
	}
	if v.hooks != nil {
		v.hooks.Enter(fn, args)
	}

	// Per-instruction profiler attribution: instead of charging a whole
	// block on entry (which overcharges early exits and faults), track
	// the instruction counter at block entry and flush the delta — the
	// instructions this frame actually executed in the block — on every
	// block transition and on every way out of the frame.
	profiling := v.profSites != nil
	var psc *profile.SiteCounts
	var profBase uint64
	if profiling {
		profBase = v.Stats.Instructions
		defer func() {
			if psc != nil {
				if d := v.Stats.Instructions - profBase; d != 0 {
					psc.AddCycles(d)
				}
			}
		}()
	}

	blk := 0
	prevBlk := -1
	for {
		b := fn.Blocks[blk]
		if xtFrames != nil {
			if f := xtFrames[blk]; !v.xt.FastAppend4(f) {
				v.xt.BlockFrameSlow(f)
			}
		}
		if profiling {
			if psc != nil {
				if d := v.Stats.Instructions - profBase; d != 0 {
					psc.AddCycles(d)
				}
			}
			profBase = v.Stats.Instructions
			c, ok := v.profSites[b]
			if !ok {
				c = v.prof.Site(v.prog.SiteName(b))
				v.profSites[b] = c
			}
			psc = c
		}
		if v.coverage != nil {
			e := edgeHash(fn, prevBlk, blk)
			c := &v.coverage[e]
			if *c < 255 {
				*c++
			}
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if v.fuelLeft == 0 {
				return 0, fmt.Errorf("%w in @%s.%s", ErrFuelExhausted, fn.Name, b.Name)
			}
			v.fuelLeft--
			v.Stats.Instructions++
			if v.instrLog != nil {
				v.traceInstr(fn, b, in)
			}

			switch in.Op {
			case ir.OpAlloc:
				count := 1
				if len(in.Args) == 1 {
					count = int(v.resolve(regs, in.Args[0]))
					if count < 1 {
						count = 1
					}
				}
				size := in.Type.Size() * count
				addr, err := v.Heap.Alloc(size)
				if err != nil {
					return 0, v.fault(fn, b, err)
				}
				v.Stats.Allocs++
				regs[in.Dest] = int64(addr)
				if in.Struct != nil && count == 1 {
					v.objects[addr] = in.Struct
				}
				if v.hooks != nil {
					v.hooks.Alloc(in.Dest, addr, size, in.Struct)
				}
				if v.tel != nil {
					name := ""
					if in.Struct != nil {
						name = in.Struct.Name
					}
					v.tel.Emit(telemetry.Event{Kind: telemetry.EvAlloc, Addr: addr, Size: size, Detail: name})
				}
			case ir.OpLocal:
				size := uint64((in.Type.Size() + 15) &^ 15)
				if v.stackTop+size > StackLimit {
					return 0, v.fault(fn, b, ErrStackOverflow)
				}
				addr := v.stackTop
				v.stackTop += size
				// Locals are zeroed (Go/C++ stack reuse would not be, but
				// deterministic init keeps workloads reproducible).
				if err := v.Mem.Set(addr, 0, in.Type.Size()); err != nil {
					return 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = int64(addr)
			case ir.OpFree:
				addr := uint64(v.resolve(regs, in.Args[0]))
				if err := v.Heap.Free(addr); err != nil {
					return 0, v.fault(fn, b, err)
				}
				v.Stats.Frees++
				if v.icGen != nil {
					// A raw free can recycle a base address out from under
					// a memoized resolution; advance the generation so
					// every inline-cached offset revalidates (same point
					// in both engines).
					*v.icGen++
				}
				// Hook first: the taint engine attributes the free via
				// the object-type tracking this delete removes.
				if v.hooks != nil {
					v.hooks.Free(addr)
				}
				if v.tel != nil {
					v.tel.Emit(telemetry.Event{Kind: telemetry.EvFree, Addr: addr})
				}
				delete(v.objects, addr)
			case ir.OpLoad:
				addr := uint64(v.resolve(regs, in.Args[0]))
				val, err := v.loadTyped(addr, in.Type)
				if err != nil {
					return 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = val
				if v.hooks != nil {
					v.hooks.Load(in.Dest, addr, in.Type.Size())
				}
			case ir.OpStore:
				addr := uint64(v.resolve(regs, in.Args[1]))
				val := v.resolve(regs, in.Args[0])
				if err := v.storeTyped(addr, in.Type, val); err != nil {
					return 0, v.fault(fn, b, err)
				}
				if v.hooks != nil {
					v.hooks.Store(in.Args[0], addr, in.Type.Size())
				}
			case ir.OpMemcpy:
				dst := uint64(v.resolve(regs, in.Args[0]))
				src := uint64(v.resolve(regs, in.Args[1]))
				n := int(v.resolve(regs, in.Args[2]))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Copy(dst, src, n); err != nil {
					return 0, v.fault(fn, b, err)
				}
				v.Stats.Memcpys++
				if v.hooks != nil {
					v.hooks.Memcpy(dst, src, n)
				}
			case ir.OpMemset:
				dst := uint64(v.resolve(regs, in.Args[0]))
				val := byte(v.resolve(regs, in.Args[1]))
				n := int(v.resolve(regs, in.Args[2]))
				if n < 0 {
					n = 0
				}
				if err := v.Mem.Set(dst, val, n); err != nil {
					return 0, v.fault(fn, b, err)
				}
				if v.hooks != nil {
					v.hooks.Memset(dst, n)
				}
			case ir.OpFieldPtr:
				base := uint64(v.resolve(regs, in.Args[0]))
				regs[in.Dest] = int64(base + uint64(in.Struct.Offset(in.Field)))
				v.Stats.FieldAccess++
				if v.hooks != nil {
					v.hooks.PtrDerive(in.Dest, in.Args[0])
				}
			case ir.OpElemPtr:
				base := uint64(v.resolve(regs, in.Args[0]))
				idx := v.resolve(regs, in.Args[1])
				regs[in.Dest] = int64(base + uint64(idx)*uint64(in.Type.Size()))
				if v.hooks != nil {
					v.hooks.PtrDerive(in.Dest, in.Args[0])
				}
			case ir.OpPtrAdd:
				base := uint64(v.resolve(regs, in.Args[0]))
				off := v.resolve(regs, in.Args[1])
				regs[in.Dest] = int64(base + uint64(off))
				if v.hooks != nil {
					v.hooks.PtrDerive(in.Dest, in.Args[0])
				}
			case ir.OpBin:
				a := v.resolve(regs, in.Args[0])
				bb := v.resolve(regs, in.Args[1])
				r, err := evalBin(in.Bin, a, bb)
				if err != nil {
					return 0, v.fault(fn, b, err)
				}
				regs[in.Dest] = r
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, in.Args[0], in.Args[1])
				}
			case ir.OpFBin:
				a := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				bb := math.Float64frombits(uint64(v.resolve(regs, in.Args[1])))
				regs[in.Dest] = int64(math.Float64bits(evalFBin(in.Bin, a, bb)))
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, in.Args[0], in.Args[1])
				}
			case ir.OpCmp:
				a := v.resolve(regs, in.Args[0])
				bb := v.resolve(regs, in.Args[1])
				regs[in.Dest] = evalCmp(in.Cmp, a, bb)
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, in.Args[0], in.Args[1])
				}
			case ir.OpFCmp:
				a := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				bb := math.Float64frombits(uint64(v.resolve(regs, in.Args[1])))
				regs[in.Dest] = evalFCmp(in.Cmp, a, bb)
				if v.hooks != nil {
					v.hooks.Bin(in.Dest, in.Args[0], in.Args[1])
				}
			case ir.OpItoF:
				regs[in.Dest] = int64(math.Float64bits(float64(v.resolve(regs, in.Args[0]))))
				if v.hooks != nil {
					v.hooks.Un(in.Dest, in.Args[0])
				}
			case ir.OpFtoI:
				f := math.Float64frombits(uint64(v.resolve(regs, in.Args[0])))
				regs[in.Dest] = int64(f)
				if v.hooks != nil {
					v.hooks.Un(in.Dest, in.Args[0])
				}
			case ir.OpMov:
				regs[in.Dest] = v.resolve(regs, in.Args[0])
				if v.hooks != nil {
					v.hooks.Un(in.Dest, in.Args[0])
				}
			case ir.OpBr:
				prevBlk, blk = blk, in.Blocks[0]
			case ir.OpCondBr:
				c := v.resolve(regs, in.Args[0])
				if v.hooks != nil {
					v.hooks.CondBr(in.Args[0])
				}
				if c != 0 {
					prevBlk, blk = blk, in.Blocks[0]
				} else {
					prevBlk, blk = blk, in.Blocks[1]
				}
			case ir.OpCall:
				if profiling {
					// The call instruction itself has been counted: flush
					// it to this site before the callee charges its own
					// sites, then rebase past whatever the callee ran.
					if d := v.Stats.Instructions - profBase; d != 0 {
						psc.AddCycles(d)
					}
				}
				ret, err := v.dispatchCall(fn, b, regs, in)
				if profiling {
					profBase = v.Stats.Instructions
				}
				if err != nil {
					return 0, err
				}
				if in.Dest >= 0 {
					regs[in.Dest] = ret
				}
			case ir.OpRet:
				var rv int64
				var retArg *ir.Value
				if len(in.Args) == 1 {
					rv = v.resolve(regs, in.Args[0])
					retArg = &in.Args[0]
				}
				if v.hooks != nil {
					v.hooks.Exit(retArg, callerDest)
				}
				return rv, nil
			default:
				return 0, v.fault(fn, b, fmt.Errorf("vm: bad opcode %d", in.Op))
			}
			if in.Op == ir.OpBr || in.Op == ir.OpCondBr {
				break
			}
		}
		if last := b.Instrs[len(b.Instrs)-1]; last.Op != ir.OpBr && last.Op != ir.OpCondBr {
			// Ret already returned; anything else is a validator bug.
			return 0, v.fault(fn, b, errors.New("vm: fell off block end"))
		}
	}
}

// boundCallee is a resolved call target: a module function, a builtin,
// or (both nil) a callee that resolves to nothing and faults. ic is the
// site's inline layout-cache slot plus one (0 = none), resolved from
// the Program's numbering once per bind.
type boundCallee struct {
	fn *ir.Func
	bi Builtin
	ic int32
}

func (v *VM) dispatchCall(fn *ir.Func, b *ir.Block, regs []int64, in *ir.Instr) (int64, error) {
	// Callee binding is stable per call site (module functions are fixed
	// at Compile; builtin re-registration drops the cache), so resolve
	// the two string maps once and hit a pointer-keyed map after that.
	bound, ok := v.callBinds[in]
	if !ok {
		bound.fn = v.prog.Func(in.Callee)
		if bound.fn == nil {
			bound.bi = v.builtins[in.Callee]
		}
		if slot, has := v.prog.icSlotOf[in]; has {
			bound.ic = slot + 1
		}
		if v.callBinds == nil {
			v.callBinds = make(map[*ir.Instr]boundCallee)
		}
		v.callBinds[in] = bound
	}
	if bound.fn != nil {
		return v.call(bound.fn, in.Args, regs, in.Dest)
	}
	if bound.bi == nil {
		return 0, v.fault(fn, b, fmt.Errorf("%w: @%s", ErrUnknownFunc, in.Callee))
	}
	// Inline layout-cache fast path, shared with the bytecode engine
	// (same slots, same generation check, same hit callback — that is
	// what keeps the engines' event and trace streams identical). Hooks
	// disable it: Hooks.Builtin must observe every call.
	if bound.ic > 0 && v.icGen != nil && v.hooks == nil {
		base := uint64(v.resolve(regs, in.Args[0]))
		field := v.resolve(regs, in.Args[1])
		class := uint64(v.resolve(regs, in.Args[2]))
		if e := &v.icSlots[bound.ic-1]; e.gen == *v.icGen && e.base == base && e.field == field && e.class == class {
			v.Perf.InlineHits++
			v.icHit(v.prog.SiteName(b), base, field, class, e.off)
			return int64(base + uint64(e.off)), nil
		}
		v.Perf.InlineMisses++
	}
	// Builtins never re-enter the interpreter, so one scratch argument
	// buffer and Call frame per VM suffice (keeps the hot olr_getptr
	// path allocation-free).
	argv := v.argvScratch[:0]
	for _, a := range in.Args {
		argv = append(argv, v.resolve(regs, a))
	}
	v.argvScratch = argv[:0]
	v.callScratch = Call{VM: v, Name: in.Callee, Args: argv, RawArgs: in.Args, fn: fn, blk: b, ic: bound.ic}
	ret, err := bound.bi(&v.callScratch)
	if err != nil {
		return 0, v.fault(fn, b, err)
	}
	if v.hooks != nil {
		v.hooks.Builtin(in.Callee, in.Args, argv, ret, in.Dest)
	}
	return ret, nil
}

// resolve evaluates an operand against a register frame.
func (v *VM) resolve(regs []int64, val ir.Value) int64 {
	switch val.Kind {
	case ir.ValConst:
		return val.Int
	case ir.ValConstF:
		return int64(math.Float64bits(val.Float))
	case ir.ValReg:
		return regs[val.Reg]
	case ir.ValGlobal:
		return int64(v.prog.globals[val.Sym])
	case ir.ValFunc:
		return v.prog.funcHandles[val.Sym]
	default:
		return 0
	}
}

// FuncByHandle resolves a function-pointer handle back to its function.
// Handles are stable pseudo-addresses precomputed at Compile time; they
// live far above the heap so they never collide with data addresses.
func (v *VM) FuncByHandle(h int64) (*ir.Func, bool) {
	idx := (uint64(h) - 0x7f00_0000_0000) / 16
	if uint64(h) < 0x7f00_0000_0000 || int(idx) >= len(v.Mod.Funcs) {
		return nil, false
	}
	return v.Mod.Funcs[idx], true
}

func (v *VM) loadTyped(addr uint64, t ir.Type) (int64, error) {
	n := t.Size()
	u, err := v.Mem.ReadU(addr, n)
	if err != nil {
		return 0, err
	}
	if t.Kind() == ir.KindInt && n < 8 {
		// Sign-extend.
		shift := uint(64 - 8*n)
		return int64(u<<shift) >> shift, nil
	}
	return int64(u), nil
}

func (v *VM) storeTyped(addr uint64, t ir.Type, val int64) error {
	return v.Mem.WriteU(addr, t.Size(), uint64(val))
}

func (v *VM) fault(fn *ir.Func, b *ir.Block, err error) error {
	return fmt.Errorf("@%s.%s: %w", fn.Name, b.Name, err)
}

func evalBin(op ir.BinKind, a, b int64) (int64, error) {
	switch op {
	case ir.BinAdd:
		return a + b, nil
	case ir.BinSub:
		return a - b, nil
	case ir.BinMul:
		return a * b, nil
	case ir.BinDiv:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a / b, nil
	case ir.BinRem:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a % b, nil
	case ir.BinAnd:
		return a & b, nil
	case ir.BinOr:
		return a | b, nil
	case ir.BinXor:
		return a ^ b, nil
	case ir.BinShl:
		return a << (uint64(b) & 63), nil
	case ir.BinShr:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	default:
		return 0, fmt.Errorf("vm: bad binop %d", op)
	}
}

func evalFBin(op ir.BinKind, a, b float64) float64 {
	switch op {
	case ir.BinAdd:
		return a + b
	case ir.BinSub:
		return a - b
	case ir.BinMul:
		return a * b
	case ir.BinDiv:
		return a / b
	case ir.BinRem:
		return math.Mod(a, b)
	default:
		return math.NaN()
	}
}

func evalCmp(op ir.CmpKind, a, b int64) int64 {
	var r bool
	switch op {
	case ir.CmpEq:
		r = a == b
	case ir.CmpNe:
		r = a != b
	case ir.CmpLt:
		r = a < b
	case ir.CmpLe:
		r = a <= b
	case ir.CmpGt:
		r = a > b
	case ir.CmpGe:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

func evalFCmp(op ir.CmpKind, a, b float64) int64 {
	var r bool
	switch op {
	case ir.CmpEq:
		r = a == b
	case ir.CmpNe:
		r = a != b
	case ir.CmpLt:
		r = a < b
	case ir.CmpLe:
		r = a <= b
	case ir.CmpGt:
		r = a > b
	case ir.CmpGe:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

func edgeHash(fn *ir.Func, prev, cur int) uint16 {
	h := uint64(14695981039346656037)
	for _, ch := range fn.Name {
		h = (h ^ uint64(ch)) * 1099511628211
	}
	h = (h ^ uint64(uint32(prev+1))) * 1099511628211
	h = (h ^ uint64(uint32(cur+1))) * 1099511628211
	return uint16(h)
}
