package vm

import "fmt"

// Engine selects the execution strategy for a VM instance.
//
// EngineBytecode runs the lowered flat bytecode produced at Compile
// time: operands are pre-resolved (globals are absolute addresses,
// function references are handles, field offsets are immediates),
// callees are small-int indices into a per-Program callee table, and
// the dominant instruction pairs are fused into superinstructions. It
// is the default because it is substantially faster and — by the
// differential-test contract — produces bit-identical results, stats
// and violation records.
//
// EngineLegacy is the original tree-walking interpreter over *ir.Instr.
// It stays as the reference semantics and as the ablation baseline
// (polarun/polarbench -engine=legacy).
//
// Fine-grained instruction observers (WithHooks, WithTrace) are only
// implemented by the tree-walker; a VM configured for bytecode falls
// back to the legacy engine for the run when either is attached, so
// taint analysis and instruction tracing see exactly the semantics they
// always did.
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

// Engine returns the engine this instance was configured with. The
// effective engine for a run may still be EngineLegacy when hooks or an
// instruction trace are attached (see Engine's doc).
func (v *VM) Engine() Engine { return v.engine }

// useBytecode reports whether runs on this instance execute the lowered
// bytecode. Hooks and instruction tracing are tree-walker facilities;
// attaching either falls back to the reference engine.
func (v *VM) useBytecode() bool {
	return v.engine == EngineBytecode && v.hooks == nil && v.instrLog == nil
}
