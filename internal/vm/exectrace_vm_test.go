package vm

import (
	"bytes"
	"testing"

	"polar/internal/telemetry/exectrace"
)

// TestExecTraceStaysOnBytecode pins the structural-zero contract: an
// execution-trace writer rides on the bytecode engine's fused lowering
// (a traced run still dispatches fused superinstructions), and an
// instance without one carries no trace state at all.
func TestExecTraceStaysOnBytecode(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.NewInstance(WithEngine(EngineBytecode))
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExecTrace() != nil {
		t.Fatal("instance without WithExecTrace carries a trace writer")
	}

	var buf bytes.Buffer
	xw := exectrace.NewWriter(&buf)
	traced, err := p.NewInstance(WithEngine(EngineBytecode), WithExecTrace(xw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Run(6); err != nil {
		t.Fatal(err)
	}
	if xw.Records() == 0 {
		t.Fatal("traced bytecode run recorded nothing")
	}
	if traced.Perf.FusedDispatches == 0 {
		t.Fatal("a traced run left the fused bytecode lowering")
	}
}

// TestExecTraceEngineIdentity runs the opcode-mix module on both
// engines with fresh writers and demands byte-identical traces — the
// block/call hook placement must agree exactly between the bytecode
// dispatch loop and the tree-walker.
func TestExecTraceEngineIdentity(t *testing.T) {
	p, err := Compile(richModule(t))
	if err != nil {
		t.Fatal(err)
	}
	trace := func(e Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		xw := exectrace.NewWriter(&buf)
		v, err := p.NewInstance(WithEngine(e), WithExecTrace(xw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(6); err != nil {
			t.Fatal(err)
		}
		if err := xw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bc, lg := trace(EngineBytecode), trace(EngineLegacy)
	if !bytes.Equal(bc, lg) {
		ta, errA := exectrace.Read(bytes.NewReader(bc))
		tb, errB := exectrace.Read(bytes.NewReader(lg))
		if errA != nil || errB != nil {
			t.Fatalf("traces differ and do not decode: %v / %v", errA, errB)
		}
		if d := exectrace.Diff(ta, tb); d != nil {
			t.Fatalf("engine traces diverge:\n%s", d.Format("bytecode", "legacy"))
		}
		t.Fatal("engine traces byte-differ but records match (encoding drift)")
	}
}
