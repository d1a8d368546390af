package evalrun

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCancelsOnFailure pins the pool's failure semantics: once a
// task errors, workers stop claiming new indices (tasks already in
// flight finish), so an expensive grid doesn't keep paying for work
// that can no longer matter, and the error surfaces to the caller.
func TestForEachCancelsOnFailure(t *testing.T) {
	const n = 64
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(n, 4, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := ran.Load(); got == n {
		t.Fatalf("all %d tasks ran despite the early failure (no cancellation)", got)
	}
}

// TestForEachSerialStopsAtFirstError covers the width-1 path: execution
// is in index order and stops at the first failure.
func TestForEachSerialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(10, 1, func(i int) error {
		ran.Add(1)
		if i >= 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d tasks, want 3 (indices 0..2)", got)
	}
}

func TestTaskSeedStableAndDistinct(t *testing.T) {
	a := TaskSeed(11, "table1/401.bzip2")
	if b := TaskSeed(11, "table1/401.bzip2"); a != b {
		t.Fatalf("TaskSeed not pure: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("TaskSeed returned negative seed %d", a)
	}
	seen := map[int64]string{}
	for _, id := range []string{"table1/a", "table1/b", "table3/a", "fig6/a", "run/0", "run/1"} {
		s := TaskSeed(11, id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TaskSeed collision: %q and %q both map to %d", prev, id, s)
		}
		seen[s] = id
	}
	if TaskSeed(11, "run/0") == TaskSeed(12, "run/0") {
		t.Fatal("TaskSeed ignores the root seed")
	}
}

// TestParallelMatchesSerial is the determinism contract of the worker
// pool: because every task derives its seed from (root seed, task ID)
// rather than consuming a shared RNG in scheduling order, the
// non-timing experiments must render byte-identically at any pool
// width.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(workers int) (string, string, string) {
		h := Harness{Workers: workers}
		t1, err := h.TableI(4, 11)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := h.TableIII(11)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := h.Security(8, 11)
		if err != nil {
			t.Fatal(err)
		}
		return RenderTableI(t1) + CSVTableI(t1), RenderTableIII(t3) + CSVTableIII(t3), sec.Render() + CSVSecurity(sec)
	}
	s1, s3, ssec := run(1)
	p1, p3, psec := run(4)
	if s1 != p1 {
		t.Errorf("Table I differs between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s", s1, p1)
	}
	if s3 != p3 {
		t.Errorf("Table III differs between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s", s3, p3)
	}
	if ssec != psec {
		t.Errorf("Security report differs between -parallel 1 and -parallel 4:\nserial:\n%s\nparallel:\n%s", ssec, psec)
	}
}
