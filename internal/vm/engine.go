package vm

import "fmt"

// Engine selects the execution strategy for a VM instance.
//
// EngineBytecode is the production engine. It runs the lowered flat
// bytecode produced at Compile time: operands are pre-resolved (globals
// are absolute addresses, function references are handles, field
// offsets are immediates), callees are small-int indices into a
// per-Program callee table, straight-line runs are fused into
// superinstructions and olr_getptr sites carry inline layout caches.
// Every facility runs on it: hooks (WithHooks) select the Program's
// hooked lowering (see Program.hookedFuncs), and the instruction trace
// (WithTrace), the profiler, coverage and the execution trace ride on
// its per-block accounting.
//
// EngineLegacy is the tree-walking interpreter over *ir.Instr: the
// plain reference semantics the differential suite checks the bytecode
// engine against (polarun/polarbench -engine=legacy, the legacy-engine
// ablation row). It neither fuses nor inline-caches, so it checks the
// caches' observables instead of mirroring them, and its Perf counters
// read zero. By the differential-test contract both engines produce
// bit-identical results, stats, traces and violation records.
type Engine uint8

// Engines.
const (
	EngineBytecode Engine = iota
	EngineLegacy
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineBytecode:
		return "bytecode"
	case EngineLegacy:
		return "legacy"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "bytecode", "":
		return EngineBytecode, nil
	case "legacy", "tree", "treewalk":
		return EngineLegacy, nil
	default:
		return EngineBytecode, fmt.Errorf("vm: unknown engine %q (want bytecode or legacy)", s)
	}
}

// WithEngine pins the execution engine for this instance. Without it
// an instance runs EngineBytecode, the zero Engine.
func WithEngine(e Engine) Option {
	return func(v *VM) { v.engine = e }
}

// Engine returns the engine this instance runs on.
func (v *VM) Engine() Engine { return v.engine }
