package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer emits Chrome trace-event–format JSON: an array of event
// objects, one per line, loadable in chrome://tracing and Perfetto.
// The stream stays valid-by-line (JSONL inside the array) and the
// array is closed by Close; Chrome also tolerates an unclosed array if
// the process dies mid-run.
//
// Spans model pipeline phases (parse → CIE → instrument → run → eval)
// as complete ("X") events; violations arriving via the event bus
// become instant ("i") events on the same timeline.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	clock  func() time.Duration // elapsed since tracer start
	n      int
	closed bool
	err    error
}

// traceEvent is one Chrome trace-event object.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"` // microseconds
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"` // instant-event scope
	Args  map[string]string `json:"args,omitempty"`
}

// NewTracer returns a tracer writing to w. The opening bracket is
// written immediately.
func NewTracer(w io.Writer) *Tracer {
	start := time.Now()
	t := &Tracer{w: w, clock: func() time.Duration { return time.Since(start) }}
	_, t.err = io.WriteString(w, "[\n")
	return t
}

// SetClock replaces the elapsed-time source (tests pin it for
// deterministic output).
func (t *Tracer) SetClock(clock func() time.Duration) {
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

func (t *Tracer) emit(e traceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	sep := ",\n"
	if t.n == 0 {
		sep = ""
	}
	if _, err := fmt.Fprintf(t.w, "%s%s", sep, data); err != nil {
		t.err = err
		return
	}
	t.n++
}

func (t *Tracer) now() int64 {
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	return clock().Microseconds()
}

// Span is an open phase; End closes it and emits the complete event.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	start int64
	done  bool
}

// Begin opens a span in category cat (e.g. "pipeline").
func (t *Tracer) Begin(name, cat string) *Span {
	return &Span{t: t, name: name, cat: cat, start: t.now()}
}

// End closes the span. Idempotent.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	end := s.t.now()
	dur := end - s.start
	if dur < 1 {
		dur = 1 // chrome://tracing drops zero-width slices
	}
	s.t.emit(traceEvent{
		Name: s.name, Cat: s.cat, Phase: "X",
		TS: s.start, Dur: dur, PID: 1, TID: 1,
	})
}

// Instant emits a zero-duration marker with optional args.
func (t *Tracer) Instant(name, cat string, args map[string]string) {
	t.emit(traceEvent{
		Name: name, Cat: cat, Phase: "i", TS: t.now(),
		PID: 1, TID: 1, Scope: "g", Args: args,
	})
}

// Event implements Sink: violation events become instant markers on the
// timeline; every other kind is ignored (per-allocation events would
// drown the trace — the registry counts those).
func (t *Tracer) Event(e Event) {
	if e.Kind != EvViolation {
		return
	}
	t.Instant("violation:"+e.Detail, "violation", map[string]string{
		"addr":   fmt.Sprintf("0x%x", e.Addr),
		"class":  fmt.Sprintf("0x%x", e.Class),
		"layout": fmt.Sprintf("0x%x", e.Layout),
		"site":   e.Site,
	})
}

// Close terminates the JSON array. Further emissions are dropped.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		_, t.err = io.WriteString(t.w, "\n]\n")
	}
	return t.err
}

// InstrLog is the line-oriented instruction tracer behind vm.WithTrace:
// it preserves the historical "@fn.block\tinstr" text format (one line
// per executed instruction, stopping after max lines) while living in
// the telemetry layer so the VM has a single tracing seam.
type InstrLog struct {
	w   io.Writer
	max int
	n   int
}

// NewInstrLog returns a tracer writing at most max lines to w
// (0 = unlimited).
func NewInstrLog(w io.Writer, max int) *InstrLog {
	return &InstrLog{w: w, max: max}
}

// Emit writes one instruction line unless the budget is exhausted.
func (l *InstrLog) Emit(fn, block, instr string) {
	if l.Full() {
		return
	}
	l.n++
	fmt.Fprintf(l.w, "@%s.%s\t%s\n", fn, block, instr)
}

// Full reports whether the line budget is exhausted (never for an
// unlimited log), so a caller can skip formatting lines Emit would drop.
func (l *InstrLog) Full() bool { return l.max > 0 && l.n >= l.max }

// Lines returns how many lines were written.
func (l *InstrLog) Lines() int { return l.n }
