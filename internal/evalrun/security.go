package evalrun

import (
	"fmt"
	"strings"

	"polar/internal/exploit"
	"polar/internal/vm"
)

// SecurityReport aggregates the §III/§V.C attack experiments.
type SecurityReport struct {
	Matrix  []exploit.Result
	Repeats []exploit.RepeatResult
	// Persistence quantifies attempts-to-success per defense (§III.B.2
	// from the attacker's side).
	Persistence []exploit.PersistenceResult
	// InterChunk is the §VII.B orthogonality comparison: heap-placement
	// randomization alone vs the two attack families.
	InterChunk exploit.InterChunkResult
}

// Security runs every scenario × defense cell plus the repeatability,
// persistence and inter-chunk experiments. The per-defense experiments
// run across the worker pool under task-derived seeds.
func (h Harness) Security(trials int, seed int64) (*SecurityReport, error) {
	eng := vm.WithEngine(h.Engine)
	sp := h.Span("attack-matrix", "security")
	matrix, err := exploit.RunAll(trials, seed, eng)
	sp.End()
	if err != nil {
		return nil, err
	}
	rep := &SecurityReport{Matrix: matrix}
	defs := exploit.AllDefenses()
	rep.Repeats = make([]exploit.RepeatResult, len(defs))
	rep.Persistence = make([]exploit.PersistenceResult, len(defs))
	err = ForEach(len(defs), h.Workers, func(i int) error {
		def := defs[i]
		sp := h.Span(fmt.Sprintf("repeat+persist/%s", def), "security")
		defer sp.End()
		tseed := TaskSeed(seed, "security/"+def.String())
		r, err := exploit.RunRepeatability(def, trials/2, tseed, eng)
		if err != nil {
			return err
		}
		rep.Repeats[i] = r
		p, err := exploit.RunPersistence(def, trials/4, 10, tseed, eng)
		if err != nil {
			return err
		}
		rep.Persistence[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp = h.Span("inter-chunk", "security")
	rep.InterChunk, err = exploit.RunInterChunkComparison(trials, seed, eng)
	sp.End()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Render renders the report.
func (s *SecurityReport) Render() string {
	var b strings.Builder
	b.WriteString("Security case studies (§III, §V.C): attack outcomes by defense\n")
	for _, r := range s.Matrix {
		b.WriteString("  " + r.String() + "\n")
	}
	b.WriteString("\nReproduction problem (§III.B.2): identical outcome on replayed attack\n")
	for _, r := range s.Repeats {
		b.WriteString(fmt.Sprintf("  %-11s pairs=%-4d identical=%5.1f%%\n",
			r.Defense, r.Pairs, 100*r.IdenticalRate()))
	}
	b.WriteString("\nPersistent attacker (UAF, up to 10 attempts per deployment)\n")
	for _, p := range s.Persistence {
		b.WriteString(fmt.Sprintf("  %-11s campaigns=%-4d eventual-success=%5.1f%% mean-attempts=%.1f alarms=%d\n",
			p.Defense, p.Campaigns, 100*p.EventualRate(), p.MeanAttempts(), p.DetectionsBeforeSuccess))
	}
	b.WriteString("\nInter-chunk randomization alone (§VII.B orthogonality)\n")
	b.WriteString("  " + s.InterChunk.Overflow.String() + "  [heap-rand]\n")
	b.WriteString("  " + s.InterChunk.TypeConfusion.String() + "  [heap-rand]\n")
	return b.String()
}
