package evalrun

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"polar/internal/core"
	"polar/internal/instrument"
	"polar/internal/telemetry"
	"polar/internal/telemetry/exectrace"
	"polar/internal/vm"
	"polar/internal/workload"
)

// TraceRow is one workload's dual-engine execution-trace result: the
// hardened module ran once per engine under the same seed with a
// deterministic trace attached, and the two traces were compared.
type TraceRow struct {
	App string
	// Mode is the layout-resolution strategy the run used ("metadata" or
	// "stateless") — the differential contract must hold per mode.
	Mode    string
	Records uint64 // event records per trace (identical across engines when Identical)
	Bytes   int    // encoded trace size per engine
	// Identical reports byte equality of the two traces — the strongest
	// form of the engine-differential contract.
	Identical bool
	// Divergence is the first divergent record when the traces differ
	// ("" when identical): "record N: <bytecode record> != <legacy record>".
	Divergence string
}

// traceOne runs the hardened program once with a trace writer attached
// and returns the encoded trace.
func (h Harness) traceOne(ins *instrument.Result, p *vm.Program, w *workload.Workload, seed int64, eng vm.Engine, mode core.LayoutMode) ([]byte, error) {
	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	tel := telemetry.New()
	xw.AttachOnce(tel.Bus)
	cfg := core.DefaultConfig(seed)
	cfg.Telemetry = tel
	cfg.ExecTrace = xw
	cfg.LayoutMode = mode
	if mode == core.LayoutModeStateless {
		cfg.RekeyEvery = h.RekeyEvery
	}
	_, _, err := h.runOnce(p, w.Input, w.Args, func(v *vm.VM) {
		core.New(ins.Table, cfg).Attach(v)
	}, vm.WithEngine(eng), vm.WithTelemetry(tel), vm.WithExecTrace(xw))
	if err != nil {
		return nil, err
	}
	if err := xw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Traces runs every workload hardened under both engines with an
// execution trace attached and compares the traces — the trace-level
// engine-differential suite, once per layout-resolution mode (no modes
// given runs both metadata and stateless). When dir is non-empty the
// traces are also written there for polartrace to chew on:
// <app>.<engine>.xt for metadata mode, <app>.stateless.<engine>.xt for
// stateless. Deterministic at any parallelism: each (mode, workload)
// cell's seed derives from (seed, mode, app name), and the rows come
// back in mode-major catalog order.
func (h Harness) Traces(dir string, seed int64, modes ...core.LayoutMode) ([]TraceRow, error) {
	if len(modes) == 0 {
		modes = []core.LayoutMode{core.LayoutModeMetadata, core.LayoutModeStateless}
	}
	ws := workload.All()
	type cell struct {
		mode core.LayoutMode
		w    *workload.Workload
	}
	var cells []cell
	for _, m := range modes {
		for _, w := range ws {
			cells = append(cells, cell{m, w})
		}
	}
	rows := make([]TraceRow, len(cells))
	if err := ForEach(len(cells), h.Workers, func(i int) error {
		mode, w := cells[i].mode, cells[i].w
		sp := h.Span("traces/"+mode.String()+"/"+w.Name, "workload")
		defer sp.End()
		// Metadata mode keeps its pre-modes seed id (and file names), so
		// existing golden traces and dashboards stay comparable.
		taskID := "traces/" + w.Name
		if mode != core.LayoutModeMetadata {
			taskID = "traces/" + mode.String() + "/" + w.Name
		}
		tseed := TaskSeed(seed, taskID)
		ins, err := instrument.Apply(w.Module, nil)
		if err != nil {
			return fmt.Errorf("%s: instrument: %w", w.Name, err)
		}
		p, err := vm.Compile(ins.Module)
		if err != nil {
			return fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		bc, err := h.traceOne(ins, p, w, tseed, vm.EngineBytecode, mode)
		if err != nil {
			return fmt.Errorf("%s/%s: bytecode: %w", mode, w.Name, err)
		}
		lg, err := h.traceOne(ins, p, w, tseed, vm.EngineLegacy, mode)
		if err != nil {
			return fmt.Errorf("%s/%s: legacy: %w", mode, w.Name, err)
		}
		row := TraceRow{App: w.Name, Mode: mode.String(), Bytes: len(bc), Identical: bytes.Equal(bc, lg)}
		ta, err := exectrace.Read(bytes.NewReader(bc))
		if err != nil {
			return fmt.Errorf("%s: decoding bytecode trace: %w", w.Name, err)
		}
		row.Records = ta.Count
		if !row.Identical {
			tb, err := exectrace.Read(bytes.NewReader(lg))
			if err != nil {
				return fmt.Errorf("%s: decoding legacy trace: %w", w.Name, err)
			}
			if d := exectrace.Diff(ta, tb); d != nil {
				a, b := "<end of trace>", "<end of trace>"
				if d.A != nil {
					a = d.A.Format()
				}
				if d.B != nil {
					b = d.B.Format()
				}
				row.Divergence = fmt.Sprintf("record %d: %s != %s", d.Index, a, b)
			} else {
				row.Divergence = "records identical but encodings differ (interning order?)"
			}
		}
		if dir != "" {
			stem := w.Name
			if mode != core.LayoutModeMetadata {
				stem = w.Name + "." + mode.String()
			}
			for _, t := range []struct {
				eng  string
				data []byte
			}{{"bytecode", bc}, {"legacy", lg}} {
				path := filepath.Join(dir, fmt.Sprintf("%s.%s.xt", stem, t.eng))
				if err := os.WriteFile(path, t.data, 0o644); err != nil {
					return err
				}
			}
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTraces renders the trace-differential table. A non-identical
// row carries its first divergence inline — that line is the bug
// report.
func RenderTraces(rows []TraceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Execution traces — bytecode vs legacy engine (byte comparison)\n")
	fmt.Fprintf(&b, "%-18s %-10s %10s %10s  %s\n", "app", "mode", "records", "bytes", "engines")
	ok := 0
	for _, r := range rows {
		verdict := "identical"
		if !r.Identical {
			verdict = "DIVERGED " + r.Divergence
		} else {
			ok++
		}
		fmt.Fprintf(&b, "%-18s %-10s %10d %10d  %s\n", r.App, r.Mode, r.Records, r.Bytes, verdict)
	}
	fmt.Fprintf(&b, "%d/%d workload/mode cells byte-identical across engines\n", ok, len(rows))
	return b.String()
}

// CSVTraces renders the rows as CSV.
func CSVTraces(rows []TraceRow) string {
	var b strings.Builder
	b.WriteString("app,mode,records,bytes,identical,divergence\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%t,%s\n", r.App, r.Mode, r.Records, r.Bytes, r.Identical, strings.ReplaceAll(r.Divergence, ",", ";"))
	}
	return b.String()
}

// PublishTraces folds the rows into a metrics registry.
func PublishTraces(rows []TraceRow, reg *telemetry.Registry) {
	for _, r := range rows {
		// Metadata-mode metric names predate the mode column and stay
		// unsuffixed so existing dashboards keep reading them.
		name := "trace." + r.App
		if r.Mode != "" && r.Mode != "metadata" {
			name += "." + r.Mode
		}
		reg.Counter(name + ".records").Set(r.Records)
		g := reg.Gauge(name + ".identical")
		if r.Identical {
			g.Set(1)
		}
	}
}

// TracesDiverged reports whether any row failed the byte-identity
// contract (the polarbench exit-status gate for CI).
func TracesDiverged(rows []TraceRow) bool {
	for _, r := range rows {
		if !r.Identical {
			return true
		}
	}
	return false
}
