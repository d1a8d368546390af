package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"polar"
	"polar/internal/workload"
)

// spec describes one benchmark workload: the programs of a pass and how
// the run's time is split between arm rounds and policy rounds.
type spec struct {
	name string
	// programs are keys of builders. Why each set was chosen is in
	// README.md.
	programs []string
	// policyShare is the fraction of the measured time spent in policy
	// rounds (the rest goes to arm rounds).
	policyShare float64
	// fuzzIters is the fuzz campaign length of each policy pipeline; 0
	// runs dynamic taint on the seeded input alone.
	fuzzIters int
	// noFuzz names programs whose policy pipeline skips the campaign.
	noFuzz []string
}

// fuzzItersFor is the campaign length of p's policy pipeline.
func (s spec) fuzzItersFor(p *program) int {
	for _, name := range s.noFuzz {
		if name == p.w.Name {
			return 0
		}
	}
	return s.fuzzIters
}

var specs = []spec{
	{
		name:        "churn",
		programs:    []string{"458.sjeng", "403.gcc", "483.xalancbmk", "400.perlbench", "464.h264ref"},
		policyShare: 0.3,
		fuzzIters:   0,
	},
	{
		name:        "access",
		programs:    []string{"429.mcf", "445.gobmk", "456.hmmer", "401.bzip2", "chakracore-1.10"},
		policyShare: 0.4,
		fuzzIters:   0,
	},
	{
		name:        "policy",
		programs:    []string{"401.bzip2", "458.sjeng", "473.astar", "libpng-1.6.34", "libjpeg-turbo-1.5.2", "chakracore-1.10"},
		policyShare: 0.5,
		fuzzIters:   6,
		// Mutated PNGs reach the CVE-shaped overflow fills, whose cost
		// depends on the mutated length: one campaign allocates 5 MB,
		// another 1.4 GB, depending on the seed (see README.md).
		noFuzz: []string{"libpng-1.6.34"},
	},
}

// builders maps the program names used above to their constructors.
var builders = map[string]func() *workload.Workload{
	"400.perlbench":       workload.Perlbench,
	"401.bzip2":           workload.Bzip2,
	"403.gcc":             workload.GCC,
	"429.mcf":             workload.MCF,
	"445.gobmk":           workload.Gobmk,
	"456.hmmer":           workload.Hmmer,
	"458.sjeng":           workload.Sjeng,
	"464.h264ref":         workload.H264ref,
	"473.astar":           workload.Astar,
	"483.xalancbmk":       workload.Xalancbmk,
	"libpng-1.6.34":       workload.LibPNG,
	"libjpeg-turbo-1.5.2": workload.LibJPEG,
	"chakracore-1.10":     workload.ChakraModel,
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// program is one workload program, compiled for every arm, with the
// reference outputs its runs are checked against.
type program struct {
	w *workload.Workload
	// input is the seeded input; runSeed the POLaR runtime seed and
	// fuzzSeed the fuzz campaign seed, all derived from the run seed.
	input    []byte
	runSeed  int64
	fuzzSeed int64
	base     *polar.Prepared
	hard     *polar.Prepared
	// refValue and refOutput come from the tree-walking reference engine
	// on the uninstrumented module.
	refValue  int64
	refOutput []byte
	// reps is how many back-to-back runs make one timed step, so that a
	// step of even the smallest program executes at least minStepInstr
	// instructions; its time is divided by reps.
	reps int
}

// minStepInstr keeps the parser programs' steps (a few thousand
// instructions per run) long enough to time well.
const minStepInstr = 200_000

// derive maps (seed, label) to a deterministic 64-bit value.
func derive(seed int64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return h.Sum64()
}

// seededInput returns input bytes of the program's canonical length
// derived from seed, shaped like the canonical input (byte noise, runs
// for the RLE compressor, markup for the XSLT tokenizer). The parser
// workloads (libpng, libjpeg) and the script-runtime model keep their
// canonical inputs: random bytes would only exercise their error paths.
func seededInput(w *workload.Workload, seed int64) []byte {
	n := len(w.Input)
	x := derive(seed, "input/"+w.Name) | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]byte, 0, n)
	switch w.Name {
	case "libpng-1.6.34", "libjpeg-turbo-1.5.2", "chakracore-1.10":
		return append(out, w.Input...)
	case "401.bzip2":
		for len(out) < n {
			r := next()
			for k := 0; k < 1+int(r>>8%9) && len(out) < n; k++ {
				out = append(out, byte(r>>32))
			}
		}
	case "483.xalancbmk":
		tags := []string{"para", "item", "ref", "section", "title", "xsl", "value-of", "template"}
		for len(out) < n {
			r := next()
			tag := tags[r%uint64(len(tags))]
			out = append(out, '<')
			out = append(out, tag...)
			out = append(out, '>')
			for t := 0; t < int(r>>60)+3; t++ {
				out = append(out, byte('a'+(r>>uint(8+t*3))%26))
			}
			out = append(out, '<', '/')
			out = append(out, tag...)
			out = append(out, '>')
		}
	default:
		for len(out) < n {
			out = append(out, byte(next()>>32))
		}
	}
	return out[:n]
}

// setupTimes splits one set-up into its layers (the spans around the
// benchmark's calls into workload, instrument and vm).
type setupTimes struct {
	build, harden, compile time.Duration
}

func (t setupTimes) total() time.Duration { return t.build + t.harden + t.compile }

// setup builds, hardens and compiles the workload's programs through
// the library defaults: polar.Harden with the Table I class list, then
// polar.Prepare and polar.PrepareHardened (no PGO, no facts file).
func setup(s spec, seed int64) ([]*program, setupTimes, error) {
	var st setupTimes
	progs := make([]*program, 0, len(s.programs))
	for _, name := range s.programs {
		build, ok := builders[name]
		if !ok {
			return nil, st, fmt.Errorf("unknown program %q", name)
		}
		t0 := time.Now()
		w := build()
		st.build += time.Since(t0)
		t0 = time.Now()
		h, err := polar.Harden(w.Module, w.ExpectedTainted)
		st.harden += time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("%s: harden: %w", name, err)
		}
		t0 = time.Now()
		base, err := polar.Prepare(w.Module)
		if err != nil {
			return nil, st, fmt.Errorf("%s: prepare: %w", name, err)
		}
		hard, err := polar.PrepareHardened(h)
		st.compile += time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("%s: prepare hardened: %w", name, err)
		}
		progs = append(progs, &program{
			w:        w,
			input:    seededInput(w, seed),
			runSeed:  int64(derive(seed, "runtime/"+name) >> 1),
			fuzzSeed: int64(derive(seed, "fuzz/"+name) >> 1),
			base:     base,
			hard:     hard,
		})
	}
	return progs, st, nil
}

// computeReferences runs every program once on the reference engine,
// uninstrumented, and stores the outputs the timed runs must match and
// the program's reps.
func computeReferences(progs []*program) error {
	for _, p := range progs {
		res, err := polar.Run(p.w.Module, polar.WithEngine(polar.EngineLegacy),
			polar.WithInput(p.input), polar.WithArgs(p.w.Args...))
		if err != nil {
			return fmt.Errorf("%s: reference run: %w", p.w.Name, err)
		}
		p.refValue, p.refOutput = res.Value, res.Output
		p.reps = int((minStepInstr + res.VM.Instructions - 1) / res.VM.Instructions)
	}
	return nil
}
