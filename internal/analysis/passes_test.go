package analysis_test

import (
	"os"
	"testing"

	"polar/internal/analysis"
	"polar/internal/exploit"
	"polar/internal/ir"
	"polar/internal/telemetry"
	"polar/internal/workload"
)

func analyze(t *testing.T, m *ir.Module) *analysis.Result {
	t.Helper()
	if err := ir.Validate(m); err != nil {
		t.Fatalf("test module invalid: %v", err)
	}
	return analysis.Analyze(m, analysis.Options{})
}

func rules(res *analysis.Result) map[string]int { return res.Findings.ByRule() }

// Every exploit case study must be flagged, by the rule that names its
// root cause.
func TestCaseStudiesFlagged(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		res := analysis.Analyze(cs.Build(), analysis.Options{})
		if rules(res)[cs.ExpectedRule] == 0 {
			t.Errorf("%s: expected rule %q, got:\n%s", cs.Name, cs.ExpectedRule, res.Findings.Render())
		}
		if res.Findings.MaxSeverity() < analysis.SevWarn {
			t.Errorf("%s: no warning-or-worse finding:\n%s", cs.Name, res.Findings.Render())
		}
	}
}

// The definite-UAF pass must stay silent on every benign workload —
// no use-after-free, double-free or uninit reads, definite or
// possible, across the whole corpus.
func TestUAFPassCleanOnBenignWorkloads(t *testing.T) {
	for _, w := range append(workload.All(), workload.V8Orinoco()) {
		res := analysis.Analyze(w.Module, analysis.Options{UAF: true})
		if len(res.Findings) != 0 {
			t.Errorf("%s: UAF pass flagged a benign workload:\n%s", w.Name, res.Findings.Render())
		}
	}
}

// Class-level recall against each workload's dynamic expectation: the
// static set must cover every class the dynamic campaign marks.
func TestStaticTaintCoversDynamicExpectations(t *testing.T) {
	for _, w := range workload.All() {
		res := analysis.Analyze(w.Module, analysis.Options{Taint: true})
		static := map[string]bool{}
		for _, c := range res.Taint.TaintedClasses() {
			static[c] = true
		}
		for _, c := range w.ExpectedTainted {
			if !static[c] {
				t.Errorf("%s: dynamic-tainted class %q missed by the static pass (recall < 1)", w.Name, c)
			}
		}
	}
}

// The §V.A V8/Orinoco incompatibility: manual mark-word offset
// arithmetic must produce a ptradd-into-class warning.
func TestV8OrinocoManualOffsetFlagged(t *testing.T) {
	res := analysis.Analyze(workload.V8Orinoco().Module, analysis.Options{Lint: true})
	if rules(res)[analysis.RulePtrAddIntoClass] == 0 {
		t.Errorf("v8 manual offset not flagged:\n%s", res.Findings.Render())
	}
}

// libpng's three deliberately modeled CVE overflow paths are constant-
// length fills past a known bound — all must be caught.
func TestLibPNGOverflowPathsFlagged(t *testing.T) {
	res := analysis.Analyze(workload.LibPNG().Module, analysis.Options{Lint: true})
	if got := rules(res)[analysis.RuleMemfillOverflow]; got != 3 {
		t.Errorf("libpng memfill-overflow findings = %d, want 3:\n%s", got, res.Findings.Render())
	}
}

func testStruct(m *ir.Module) *ir.StructType {
	return m.MustStruct(ir.NewStruct("Box",
		ir.Field{Name: "a", Type: ir.I64},
		ir.Field{Name: "cb", Type: ir.Fptr},
		ir.Field{Name: "b", Type: ir.I64},
	))
}

func TestDoubleFreeDetected(t *testing.T) {
	m := ir.NewModule("df")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Alloc(st)
	b.Free(v)
	b.Free(v)
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	if rules(res)[analysis.RuleDoubleFree] == 0 {
		t.Errorf("double free not flagged:\n%s", res.Findings.Render())
	}
}

func TestFreeOnOnePathWarnsOnly(t *testing.T) {
	m := ir.NewModule("maybe")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	v := b.Alloc(st)
	b.Store(ir.I64, ir.Const(1), b.FieldPtrName(st, v, "a"))
	c := b.Cmp(ir.CmpGt, b.ParamReg(0), ir.Const(0))
	b.If("maybe", c, func() { b.Free(v) }, nil)
	got := b.Load(ir.I64, b.FieldPtrName(st, v, "a")) // freed on one path only
	b.Ret(got)
	res := analyze(t, m)
	if rules(res)[analysis.RuleUseAfterFree] != 0 {
		t.Errorf("one-path free reported as definite UAF:\n%s", res.Findings.Render())
	}
	if rules(res)[analysis.RulePossibleUAF] == 0 {
		t.Errorf("one-path free not reported as possible UAF:\n%s", res.Findings.Render())
	}
}

func TestAllocInLoopNotFlagged(t *testing.T) {
	m := ir.NewModule("loopalloc")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	b.CountedLoop("l", ir.Const(4), func(i ir.Value) {
		v := b.Alloc(st)
		b.Store(ir.I64, i, b.FieldPtrName(st, v, "a"))
		b.Free(v)
	})
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	for _, f := range res.Findings {
		if f.Pass == "uaf" {
			t.Errorf("alloc/use/free loop flagged: %s", f)
		}
	}
}

func TestMemcpyCrossClassWarns(t *testing.T) {
	m := ir.NewModule("xcopy")
	a := m.MustStruct(ir.NewStruct("A", ir.Field{Name: "x", Type: ir.I64}, ir.Field{Name: "y", Type: ir.I64}))
	c := m.MustStruct(ir.NewStruct("C", ir.Field{Name: "p", Type: ir.I64}, ir.Field{Name: "q", Type: ir.I64}))
	b := ir.NewFunc(m, "main", ir.I64)
	va := b.Alloc(a)
	vc := b.Alloc(c)
	b.Store(ir.I64, ir.Const(1), b.FieldPtrName(a, va, "x"))
	b.Memcpy(vc, va, ir.Const(int64(a.Size())))
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	if rules(res)[analysis.RuleMemcpyCrossClass] == 0 {
		t.Errorf("cross-class memcpy not flagged:\n%s", res.Findings.Render())
	}
}

func TestMemcpyPartialClassWarns(t *testing.T) {
	m := ir.NewModule("partial")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Alloc(st)
	w := b.Alloc(st)
	b.Store(ir.I64, ir.Const(1), b.FieldPtrName(st, v, "a"))
	b.Memcpy(w, v, ir.Const(8)) // first 8 bytes of a 24-byte class
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	if rules(res)[analysis.RuleMemcpyPartial] == 0 {
		t.Errorf("partial struct copy not flagged:\n%s", res.Findings.Render())
	}
	// Full-size copy between same-class objects stays clean.
	m2 := ir.NewModule("full")
	st2 := testStruct(m2)
	b2 := ir.NewFunc(m2, "main", ir.I64)
	v2 := b2.Alloc(st2)
	w2 := b2.Alloc(st2)
	b2.Store(ir.I64, ir.Const(1), b2.FieldPtrName(st2, v2, "a"))
	b2.Memcpy(w2, v2, ir.Const(int64(st2.Size())))
	b2.Ret(ir.Const(0))
	res2 := analyze(t, m2)
	if n := rules(res2)[analysis.RuleMemcpyPartial] + rules(res2)[analysis.RuleMemcpyCrossClass]; n != 0 {
		t.Errorf("full same-class copy flagged:\n%s", res2.Findings.Render())
	}
}

func TestOOBStoreDetected(t *testing.T) {
	m := ir.NewModule("oob")
	b := ir.NewFunc(m, "main", ir.I64)
	buf := b.AllocN(ir.I8, ir.Const(16))
	b.Store(ir.I64, ir.Const(7), b.PtrAdd(buf, ir.Const(12))) // bytes 12..20 of 16
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	if rules(res)[analysis.RuleOOBStore] == 0 {
		t.Errorf("out-of-bounds store not flagged:\n%s", res.Findings.Render())
	}
}

func TestFieldPtrEscapes(t *testing.T) {
	m := ir.NewModule("esc")
	st := testStruct(m)
	sink := ir.NewFunc(m, "sink", ir.I64, ir.Param{Name: "p", Type: ir.I64})
	sink.Ret(sink.ParamReg(0))
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Alloc(st)
	fp := b.FieldPtrName(st, v, "a")
	g := b.Local(ir.I64)
	b.Store(ir.I64, fp, g) // escape: stored
	b.Call("sink", fp)     // escape: passed across a call
	b.Ret(fp)              // escape: returned
	res := analyze(t, m)
	if got := rules(res)[analysis.RuleFieldPtrEscape]; got != 3 {
		t.Errorf("fieldptr escapes = %d, want 3 (store, call, return):\n%s", got, res.Findings.Render())
	}
}

func TestFieldPtrLiveAcrossFree(t *testing.T) {
	m := ir.NewModule("dangling")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Alloc(st)
	b.Store(ir.I64, ir.Const(1), b.FieldPtrName(st, v, "a"))
	fp := b.FieldPtrName(st, v, "a") // derived before the free...
	b.Free(v)
	got := b.Load(ir.I64, fp) // ...used after it
	b.Ret(got)
	res := analyze(t, m)
	if rules(res)[analysis.RuleFieldPtrPastFree] == 0 {
		t.Errorf("dangling fieldptr not flagged:\n%s", res.Findings.Render())
	}
	if rules(res)[analysis.RuleUseAfterFree] == 0 {
		t.Errorf("deref through dangling fieldptr not flagged as UAF:\n%s", res.Findings.Render())
	}
}

func TestElemPtrIntoClassWarns(t *testing.T) {
	m := ir.NewModule("idx")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64, ir.Param{Name: "i", Type: ir.I64})
	v := b.Alloc(st)
	b.Store(ir.I64, ir.Const(1), b.FieldPtrName(st, v, "a"))
	got := b.Load(ir.I8, b.ElemPtr(ir.I8, v, b.ParamReg(0))) // byte-scans the class
	b.Ret(got)
	res := analyze(t, m)
	if rules(res)[analysis.RuleElemPtrIntoClass] == 0 {
		t.Errorf("byte-indexing into class not flagged:\n%s", res.Findings.Render())
	}
	// Indexing an array OF the class is the legitimate idiom.
	m2 := ir.NewModule("arr")
	st2 := testStruct(m2)
	b2 := ir.NewFunc(m2, "main", ir.I64, ir.Param{Name: "i", Type: ir.I64})
	arr := b2.AllocN(st2, ir.Const(4))
	one := b2.ElemPtr(st2, arr, b2.ParamReg(0))
	b2.Store(ir.I64, ir.Const(1), b2.FieldPtrName(st2, one, "a"))
	b2.Ret(ir.Const(0))
	res2 := analyze(t, m2)
	if rules(res2)[analysis.RuleElemPtrIntoClass] != 0 {
		t.Errorf("array-of-class indexing flagged:\n%s", res2.Findings.Render())
	}
}

// Static taint: input_read into a heap object's member marks class,
// field, pointer taint, and the policy conversion applies the §IV.B.1
// tuning.
func TestStaticTaintToPolicy(t *testing.T) {
	m := ir.NewModule("tp")
	st := testStruct(m)
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Alloc(st)
	b.Call("input_read", b.FieldPtrName(st, v, "cb"), ir.Const(0), ir.Const(8))
	n := b.Call("input_len")
	c := b.Cmp(ir.CmpGt, n, ir.Const(4))
	b.If("bigger", c, func() {
		w := b.Alloc(st) // allocation under tainted control
		b.Store(ir.I64, ir.Const(0), b.FieldPtrName(st, w, "a"))
		b.Free(w)
	}, nil)
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	ct := res.Taint.Class("Box")
	if ct == nil {
		t.Fatalf("Box not tainted: %+v", res.Taint)
	}
	if !ct.ContentTainted || !ct.AllocTainted || !ct.FreeTainted {
		t.Errorf("Box marks = %+v, want content+alloc+free", ct)
	}
	if !ct.PointerTainted() {
		t.Errorf("cb (fptr) member not marked pointer-tainted: %+v", ct.Fields)
	}
	pol := res.Taint.Policy("test")
	cp, ok := pol.Classes["Box"]
	if !ok {
		t.Fatalf("policy missing Box: %+v", pol)
	}
	if len(cp.TaintedFields) == 0 || cp.Why != "input-tainted pointer members" {
		t.Errorf("policy tuning = %+v", cp)
	}
}

// Taint must flow interprocedurally: through a helper's parameter and
// return value, and control taint must be inherited by callees.
func TestInterproceduralTaint(t *testing.T) {
	m := ir.NewModule("ip")
	st := testStruct(m)
	hb := ir.NewFunc(m, "mix", ir.I64, ir.Param{Name: "x", Type: ir.I64})
	hb.Ret(hb.Bin(ir.BinAdd, hb.ParamReg(0), ir.Const(1)))
	ab := ir.NewFunc(m, "spawn", ir.I64)
	av := ab.Alloc(st) // allocation in a callee under tainted control
	ab.Store(ir.I64, ir.Const(0), ab.FieldPtrName(st, av, "a"))
	ab.Ret(ir.Const(0))
	b := ir.NewFunc(m, "main", ir.I64)
	v := b.Alloc(st)
	tainted := b.Call("mix", b.Call("input_len"))
	b.Store(ir.I64, tainted, b.FieldPtrName(st, v, "a"))
	c := b.Cmp(ir.CmpGt, tainted, ir.Const(0))
	b.If("branch", c, func() { b.Call("spawn") }, nil)
	b.Ret(ir.Const(0))
	res := analyze(t, m)
	ct := res.Taint.Class("Box")
	if ct == nil || !ct.ContentTainted {
		t.Fatalf("taint did not flow through @mix: %+v", res.Taint)
	}
	if !ct.AllocTainted {
		t.Errorf("control taint not inherited by @spawn: %+v", ct)
	}
}

// Per-pass timing and finding counts must land in the registry.
func TestAnalyzeMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, cs := range exploit.CaseStudies() {
		analysis.Analyze(cs.Build(), analysis.Options{Metrics: reg})
	}
	snap := reg.Snapshot()
	for _, name := range []string{"analysis.interp.seconds", "analysis.lint.seconds", "analysis.uaf.seconds", "analysis.taint.seconds"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("missing gauge %s", name)
		}
	}
	if _, ok := snap.Counters["analysis.lint.findings"]; !ok {
		t.Error("missing counter analysis.lint.findings")
	}
}

// Determinism: two runs over the same module render identically.
func TestAnalyzeDeterministic(t *testing.T) {
	for _, cs := range exploit.CaseStudies() {
		a := analysis.Analyze(cs.Build(), analysis.Options{}).Findings.Render()
		b := analysis.Analyze(cs.Build(), analysis.Options{}).Findings.Render()
		if a != b {
			t.Errorf("%s: nondeterministic findings:\n--- run1\n%s--- run2\n%s", cs.Name, a, b)
		}
	}
}

// The quickstart example must stay clean at the CI gate severity.
func TestQuickstartCleanAtErrorGate(t *testing.T) {
	res := analysis.Analyze(mustParseFile(t, "../../examples/quickstart/quickstart.ir"), analysis.Options{})
	if res.Findings.CountAtLeast(analysis.SevError) != 0 {
		t.Errorf("quickstart has error findings:\n%s", res.Findings.Render())
	}
}

func mustParseFile(t *testing.T, path string) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
