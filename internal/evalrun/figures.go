package evalrun

import (
	"fmt"
	"strings"
	"time"

	"polar/internal/core"
	"polar/internal/workload"
)

// OverheadRow is one bar of Fig. 6.
type OverheadRow struct {
	App         string
	BaselineMS  float64
	PolarMS     float64
	OverheadPct float64
	// PaperPct is the approximate value read off the paper's Fig. 6
	// (~5% typical, ~30% for sjeng).
	PaperPct float64
}

// Figure6 measures the SPEC2006 overheads (Fig. 6). reps is the number
// of repetitions per configuration (min taken). Apps run across the
// worker pool; all reps of one app stay on one worker.
func (h Harness) Figure6(reps int, seed int64) ([]OverheadRow, error) {
	ws := workload.SPECFig6()
	rows := make([]OverheadRow, len(ws))
	err := ForEach(len(ws), h.Workers, func(i int) error {
		w := ws[i]
		sp := h.Span(w.Name, "fig6")
		defer sp.End()
		tseed := TaskSeed(seed, "fig6/"+w.Name)
		base, polar, _, _, err := h.measureWorkload(w, reps, tseed, core.DefaultConfig(tseed))
		if err != nil {
			return err
		}
		rows[i] = OverheadRow{
			App:         w.Name,
			BaselineMS:  float64(base.Microseconds()) / 1000,
			PolarMS:     float64(polar.Microseconds()) / 1000,
			OverheadPct: overheadPct(base, polar),
			PaperPct:    w.PaperOverheadPct,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure6 renders the rows as a text bar chart.
func RenderFigure6(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Figure 6: POLaR performance overhead, SPEC2006 mini-apps\n")
	b.WriteString(fmt.Sprintf("%-16s %10s %10s %9s %9s  %s\n",
		"app", "base(ms)", "polar(ms)", "ovhd%", "paper%", "bar"))
	for _, r := range rows {
		bar := strings.Repeat("#", clampInt(int(r.OverheadPct/1.5), 0, 40))
		b.WriteString(fmt.Sprintf("%-16s %10.2f %10.2f %8.1f%% %8.1f%%  %s\n",
			r.App, r.BaselineMS, r.PolarMS, r.OverheadPct, r.PaperPct, bar))
	}
	return b.String()
}

// JSRow is one bar of Fig. 7: a benchmark measured Default vs POLaR.
// Time-based rows report milliseconds (smaller is better); score-based
// rows report a work/time rate (higher is better).
type JSRow struct {
	Suite      string
	Name       string
	Default    float64
	Polar      float64
	ScoreBased bool
}

// DiffPct returns the POLaR-vs-default change in the suite's natural
// direction (positive = POLaR slower/worse).
func (r JSRow) DiffPct() float64 {
	if r.Default == 0 {
		return 0
	}
	if r.ScoreBased {
		return 100 * (r.Default - r.Polar) / r.Default
	}
	return 100 * (r.Polar - r.Default) / r.Default
}

// Figure7 measures all 67 JS kernels (Fig. 7 a–d). Kernels run across
// the worker pool; all reps of one kernel stay on one worker.
func (h Harness) Figure7(reps int, seed int64) ([]JSRow, error) {
	ks := workload.JSBenchmarks()
	rows := make([]JSRow, len(ks))
	err := ForEach(len(ks), h.Workers, func(i int) error {
		k := ks[i]
		sp := h.Span(k.Suite+"/"+k.Name, "fig7")
		defer sp.End()
		base, polar, err := h.measureJSKernel(k, reps, TaskSeed(seed, "fig7/"+k.Suite+"/"+k.Name))
		if err != nil {
			return err
		}
		row := JSRow{Suite: k.Suite, Name: k.Name, ScoreBased: k.ScoreBased}
		if k.ScoreBased {
			// Octane/JetStream-style score: work rate relative to a
			// fixed time constant (higher is better).
			row.Default = 1e10 / float64(base.Nanoseconds()+1)
			row.Polar = 1e10 / float64(polar.Nanoseconds()+1)
		} else {
			row.Default = float64(base.Microseconds()) / 1000
			row.Polar = float64(polar.Microseconds()) / 1000
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (h Harness) measureJSKernel(k *workload.JSKernel, reps int, seed int64) (base, polar time.Duration, err error) {
	w := &workload.Workload{Name: k.Suite + "/" + k.Name, Module: k.Module, Input: k.Input}
	base, polar, _, _, err = h.measureWorkload(w, reps, seed, core.DefaultConfig(seed))
	return base, polar, err
}

// RenderFigure7 renders per-suite sections.
func RenderFigure7(rows []JSRow) string {
	var b strings.Builder
	for _, suite := range workload.JSSuites() {
		unit := "ms"
		note := "(smaller is better)"
		for _, r := range rows {
			if r.Suite == suite && r.ScoreBased {
				unit = "score"
				note = "(higher is better)"
				break
			}
		}
		b.WriteString(fmt.Sprintf("Figure 7 — %s %s\n", suite, note))
		b.WriteString(fmt.Sprintf("%-28s %12s %12s %8s\n", "benchmark", "default("+unit+")", "polar("+unit+")", "diff%"))
		for _, r := range rows {
			if r.Suite != suite {
				continue
			}
			b.WriteString(fmt.Sprintf("%-28s %12.2f %12.2f %7.1f%%\n", r.Name, r.Default, r.Polar, r.DiffPct()))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SuiteRow is one row of Table II: suite-level aggregation.
type SuiteRow struct {
	Suite      string
	Default    float64
	Polar      float64
	Diff       float64
	RatioPct   float64
	ScoreBased bool
	// PaperPct is Table II's reported ratio.
	PaperPct float64
}

var paperTableII = map[string]float64{
	"Sunspider": 0.20, "Kraken": 0.20, "Octane": -1.10, "Jetstream": 0.70,
}

// TableII aggregates Figure 7 rows into the paper's Table II: total
// time for the time-based suites, mean score for the score-based ones.
func TableII(rows []JSRow) []SuiteRow {
	var out []SuiteRow
	for _, suite := range workload.JSSuites() {
		var def, pol float64
		var n int
		score := false
		for _, r := range rows {
			if r.Suite != suite {
				continue
			}
			def += r.Default
			pol += r.Polar
			n++
			score = r.ScoreBased
		}
		if n == 0 {
			continue
		}
		if score {
			def /= float64(n)
			pol /= float64(n)
		}
		row := SuiteRow{Suite: suite, Default: def, Polar: pol, Diff: pol - def, ScoreBased: score, PaperPct: paperTableII[suite]}
		if def != 0 {
			if score {
				row.RatioPct = 100 * (def - pol) / def
			} else {
				row.RatioPct = 100 * (pol - def) / def
			}
		}
		out = append(out, row)
	}
	return out
}

// RenderTableII renders the suite aggregation.
func RenderTableII(rows []SuiteRow) string {
	var b strings.Builder
	b.WriteString("Table II: POLaR overhead, ChakraCore-model JS suites\n")
	b.WriteString(fmt.Sprintf("%-12s %12s %12s %10s %8s %8s\n",
		"benchmark", "default", "polar", "diff", "ratio%", "paper%"))
	for _, r := range rows {
		kind := "time(ms)"
		if r.ScoreBased {
			kind = "score"
		}
		b.WriteString(fmt.Sprintf("%-12s %12.2f %12.2f %10.2f %7.2f%% %7.2f%%  [%s]\n",
			r.Suite, r.Default, r.Polar, r.Diff, r.RatioPct, r.PaperPct, kind))
	}
	return b.String()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
