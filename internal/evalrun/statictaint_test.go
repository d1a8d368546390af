package evalrun

import (
	"strings"
	"testing"
)

// TestStaticTaintRecall is the acceptance gate for the static
// TaintClass pass: over the whole application corpus, every class the
// dynamic campaign marks must also be marked statically (recall 1.0).
// Runs the canonical input only (fuzzIters=0) to stay test-speed.
func TestStaticTaintRecall(t *testing.T) {
	rows, err := Harness{}.StaticTaint(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no workloads")
	}
	for _, r := range rows {
		if r.Recall() != 1 {
			t.Errorf("%s: recall %.2f (missed %v) — the static pass must over-approximate the dynamic verdict",
				r.App, r.Recall(), r.Missed)
		}
		if r.Precision() < 0 || r.Precision() > 1 {
			t.Errorf("%s: precision %.2f out of range", r.App, r.Precision())
		}
	}
}

func TestStaticTaintRowMath(t *testing.T) {
	r := StaticTaintRow{App: "x", Dynamic: 4, Static: 5, Both: 4, Extra: []string{"E"}}
	if r.Recall() != 1 || r.Precision() != 0.8 {
		t.Errorf("recall=%v precision=%v", r.Recall(), r.Precision())
	}
	empty := StaticTaintRow{App: "y"}
	if empty.Recall() != 1 || empty.Precision() != 1 {
		t.Error("empty sets must count as perfect agreement")
	}
}

func TestStaticTaintRender(t *testing.T) {
	rows := []StaticTaintRow{
		{App: "app1", Dynamic: 2, Static: 2, Both: 2, DynamicSecs: 1, StaticSecs: 0.01},
		{App: "app2", Dynamic: 1, Static: 2, Both: 1, Extra: []string{"Spare"}},
	}
	text := RenderStaticTaint(rows)
	for _, want := range []string{"app1", "app2", "recall", "extra: Spare", "100x"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	csv := CSVStaticTaint(rows)
	if !strings.HasPrefix(csv, "app,dynamic,static,recall,precision") {
		t.Errorf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "app2,1,2,1.000,0.500") {
		t.Errorf("csv row wrong:\n%s", csv)
	}
}
