package taint

import (
	"errors"
	"fmt"

	"polar/internal/ir"
	"polar/internal/vm"
)

// RunOptions configures a TaintClass analysis execution.
type RunOptions struct {
	// Fuel bounds each execution (0 = VM default).
	Fuel uint64
	// Args are passed to @main.
	Args []int64
	// IgnoreRunErrors keeps analyzing when an input crashes the program
	// (TaintClass corpora often include crashing inputs — the CVE case
	// studies depend on the taint collected before the crash).
	IgnoreRunErrors bool
}

// AnalyzeOne executes the module once with the given input under the
// taint engine and returns the per-run report.
func AnalyzeOne(m *ir.Module, input []byte, opts RunOptions) (*Report, error) {
	return Analyze(m, [][]byte{input}, opts)
}

// Analyze executes the module once per corpus input and returns the
// merged report — the TaintClass object list for the program. The
// module is compiled once; every input runs on a fresh instance.
func Analyze(m *ir.Module, corpus [][]byte, opts RunOptions) (*Report, error) {
	p, err := vm.Compile(ir.Clone(m))
	if err != nil {
		return nil, fmt.Errorf("taint: %w", err)
	}
	rep := NewReport()
	for i, input := range corpus {
		if err := analyzeInto(p, input, opts, rep); err != nil {
			return nil, fmt.Errorf("taint: corpus entry %d: %w", i, err)
		}
	}
	return rep, nil
}

func analyzeInto(p *vm.Program, input []byte, opts RunOptions, rep *Report) error {
	eng := NewEngine(rep)
	vmOpts := []vm.Option{vm.WithInput(input), vm.WithHooks(eng)}
	if opts.Fuel > 0 {
		vmOpts = append(vmOpts, vm.WithFuel(opts.Fuel))
	}
	v, err := p.NewInstance(vmOpts...)
	if err != nil {
		return err
	}
	eng.Bind(v)
	if _, err := v.Run(opts.Args...); err != nil {
		if opts.IgnoreRunErrors || errors.Is(err, vm.ErrFuelExhausted) {
			return nil
		}
		return err
	}
	return nil
}

// vmNewForTest builds a VM with the engine attached (test helper kept
// here so the engine wiring stays in one place).
func vmNewForTest(t interface{ Helper() }, m *ir.Module, eng *Engine, input []byte) (*vm.VM, error) {
	t.Helper()
	return vm.New(ir.Clone(m), vm.WithHooks(eng), vm.WithInput(input))
}
