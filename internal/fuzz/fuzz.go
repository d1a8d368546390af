// Package fuzz implements the coverage-guided input generation module
// TaintClass borrows from libFuzzer (§IV.B.2).
//
// The paper uses "only the coverage-guiding module" of libFuzzer to
// drive DFSan's input-case generation toward code (and therefore
// object) coverage that a single canonical input would miss. This
// package is that module: a deterministic mutation engine over a corpus,
// keeping inputs that light up new edges in the VM's edge-coverage
// bitmap.
package fuzz

import (
	"errors"
	"fmt"
	"math/rand"

	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/vm"
)

// Config controls a fuzzing campaign.
type Config struct {
	// Iterations is the number of executions (the time budget analogue;
	// the paper fuzzed "several hours", we fuzz thousands of execs).
	Iterations int
	// MaxInputLen bounds generated inputs.
	MaxInputLen int
	// Seed makes the campaign deterministic.
	Seed int64
	// Fuel bounds each execution (0 = VM default).
	Fuel uint64
	// Args are passed to @main on every execution.
	Args []int64
	// Engine executes every input (the zero value is the bytecode
	// engine); campaigns are identical on either.
	Engine vm.Engine
	// Telemetry, when non-nil, receives an EvCorpusAdd event per
	// coverage-increasing input and campaign counters (fuzz.execs,
	// fuzz.crashers, fuzz.edges) in its registry.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig returns a small deterministic campaign.
func DefaultConfig(seed int64) Config {
	return Config{Iterations: 2000, MaxInputLen: 4096, Seed: seed, Fuel: 50_000_000}
}

// Result is the campaign outcome.
type Result struct {
	// Corpus holds every input that contributed new coverage (including
	// the seeds that ran successfully).
	Corpus [][]byte
	// Crashers holds inputs whose execution returned an error — memory
	// faults, aborts — kept separately (useful corpus for the CVE case
	// studies).
	Crashers [][]byte
	// Execs is the number of executions performed.
	Execs int
	// Edges is the number of distinct coverage-bitmap slots ever hit.
	Edges int
}

// Run executes a campaign against the module's @main. The module is
// compiled once; every execution runs on a fresh instance.
func Run(m *ir.Module, seeds [][]byte, cfg Config) (*Result, error) {
	prog, err := vm.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1000
	}
	if cfg.MaxInputLen <= 0 {
		cfg.MaxInputLen = 4096
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}
	seen := make([]byte, 1<<16)

	execute := func(input []byte) (newCov bool, crashed bool, err error) {
		opts := []vm.Option{vm.WithInput(input), vm.WithCoverage(), vm.WithEngine(cfg.Engine)}
		if cfg.Fuel > 0 {
			opts = append(opts, vm.WithFuel(cfg.Fuel))
		}
		v, err := prog.NewInstance(opts...)
		if err != nil {
			return false, false, err
		}
		_, runErr := v.Run(cfg.Args...)
		res.Execs++
		cov := v.Coverage()
		for i, c := range cov {
			if c != 0 && seen[i] == 0 {
				seen[i] = 1
				newCov = true
				res.Edges++
			}
		}
		if runErr != nil && !errors.Is(runErr, vm.ErrFuelExhausted) {
			return newCov, true, nil
		}
		return newCov, false, nil
	}

	if len(seeds) == 0 {
		seeds = [][]byte{{}}
	}
	for _, s := range seeds {
		nc, crashed, err := execute(s)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed execution: %w", err)
		}
		if crashed {
			res.Crashers = append(res.Crashers, append([]byte(nil), s...))
		}
		if nc || len(res.Corpus) == 0 {
			res.Corpus = append(res.Corpus, append([]byte(nil), s...))
			if cfg.Telemetry != nil {
				cfg.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvCorpusAdd, Size: len(s), Detail: "seed"})
			}
		}
	}

	for it := 0; it < cfg.Iterations; it++ {
		parent := res.Corpus[rng.Intn(len(res.Corpus))]
		var donor []byte
		if len(res.Corpus) > 1 {
			donor = res.Corpus[rng.Intn(len(res.Corpus))]
		}
		cand := Mutate(parent, donor, cfg.MaxInputLen, rng)
		nc, crashed, err := execute(cand)
		if err != nil {
			return nil, fmt.Errorf("fuzz: iteration %d: %w", it, err)
		}
		if crashed {
			if len(res.Crashers) < 256 {
				res.Crashers = append(res.Crashers, cand)
			}
			continue
		}
		if nc {
			res.Corpus = append(res.Corpus, cand)
			if cfg.Telemetry != nil {
				cfg.Telemetry.Emit(telemetry.Event{Kind: telemetry.EvCorpusAdd, Size: len(cand), Detail: "mutant"})
			}
		}
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry
		reg.Counter("fuzz.execs").Set(uint64(res.Execs))
		reg.Counter("fuzz.corpus").Set(uint64(len(res.Corpus)))
		reg.Counter("fuzz.crashers").Set(uint64(len(res.Crashers)))
		reg.Counter("fuzz.edges").Set(uint64(res.Edges))
	}
	return res, nil
}

// interesting values mirror libFuzzer's table.
var interesting = []int64{0, 1, -1, 16, 32, 64, 100, 127, -128, 255, 256, 512, 1000, 1024, 4096, 32767, -32768, 65535, 65536, 1 << 24, 1 << 31}

// Mutate derives a new input from parent (and optionally donor for
// splices). Exported so property tests can drive it directly.
func Mutate(parent, donor []byte, maxLen int, rng *rand.Rand) []byte {
	out := append([]byte(nil), parent...)
	// Havoc: apply 1..4 stacked mutations.
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(8) {
		case 0: // bit flip
			if len(out) > 0 {
				i := rng.Intn(len(out))
				out[i] ^= 1 << uint(rng.Intn(8))
			}
		case 1: // random byte
			if len(out) > 0 {
				out[rng.Intn(len(out))] = byte(rng.Intn(256))
			}
		case 2: // insert random byte
			if len(out) < maxLen {
				i := rng.Intn(len(out) + 1)
				out = append(out[:i], append([]byte{byte(rng.Intn(256))}, out[i:]...)...)
			}
		case 3: // delete byte
			if len(out) > 0 {
				i := rng.Intn(len(out))
				out = append(out[:i], out[i+1:]...)
			}
		case 4: // interesting 8/16/32-bit value
			if len(out) > 0 {
				v := interesting[rng.Intn(len(interesting))]
				width := 1 << uint(rng.Intn(3)) // 1, 2 or 4 bytes
				i := rng.Intn(len(out))
				for b := 0; b < width && i+b < len(out); b++ {
					out[i+b] = byte(v >> (8 * b))
				}
			}
		case 5: // duplicate a block
			if len(out) > 0 && len(out) < maxLen {
				start := rng.Intn(len(out))
				l := 1 + rng.Intn(minInt(16, len(out)-start))
				blk := append([]byte(nil), out[start:start+l]...)
				i := rng.Intn(len(out) + 1)
				out = append(out[:i], append(blk, out[i:]...)...)
			}
		case 6: // splice with donor
			if len(donor) > 0 {
				i := rng.Intn(len(donor))
				l := 1 + rng.Intn(minInt(32, len(donor)-i))
				if len(out) == 0 {
					out = append(out, donor[i:i+l]...)
				} else {
					j := rng.Intn(len(out))
					out = append(out[:j], append(append([]byte(nil), donor[i:i+l]...), out[j:]...)...)
				}
			}
		case 7: // extend with zeros (length probing)
			if len(out) < maxLen {
				grow := 1 + rng.Intn(16)
				if len(out)+grow > maxLen {
					grow = maxLen - len(out)
				}
				out = append(out, make([]byte, grow)...)
			}
		}
	}
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
