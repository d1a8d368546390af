package polar

import (
	"runtime"
	"testing"

	"polar/internal/workload"
)

// TestAnalyzeTaintFuzzedLibPNGAllocationBounded runs TaintClass on the
// corpus of short libpng fuzz campaigns whose mutated headers drive huge
// mallocs. The zero fill of such an allocation must not materialize
// shadow pages: with byte-granular 8-byte labels, a dense shadow of the
// fill allocated gigabytes (seed 32: 6 GB, seed 73: 4 GB).
func TestAnalyzeTaintFuzzedLibPNGAllocationBounded(t *testing.T) {
	w := workload.LibPNG()
	for _, seed := range []int64{32, 73} {
		fr, err := FuzzForCoverage(w.Module, [][]byte{w.Input}, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		corpus := append([][]byte{w.Input}, fr.Corpus...)
		corpus = append(corpus, fr.Crashers...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := AnalyzeTaint(w.Module, corpus)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		const boundMB = 32
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > boundMB {
			t.Errorf("seed %d: AnalyzeTaint on %d inputs allocated %d MB, want <= %d MB", seed, len(corpus), mb, boundMB)
		}
		if len(rep.TaintedClasses()) == 0 {
			t.Errorf("seed %d: no tainted classes", seed)
		}
	}
}
