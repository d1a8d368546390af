package polar

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"polar/internal/analysis"
	"polar/internal/workload"
)

// TestConcurrentPrepareOptions prepares one hardened module from many
// goroutines at once under different compile options and runs each on
// both engines. Options travel with each call, so every concurrent
// fingerprint and result must equal its serial counterpart — no call
// may observe another's options.
func TestConcurrentPrepareOptions(t *testing.T) {
	w := workload.LibPNG()
	facts := analysis.Analyze(w.Module, analysis.Options{SiteFacts: true}).Sites.CompileFacts()
	h, err := Harden(w.Module, nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"static", nil},
		{"facts", []Option{WithFacts(facts)}},
	}
	type outcome struct {
		fingerprint uint64
		res         *Result
	}
	run := func(opts []Option, e Engine) (outcome, error) {
		p, err := PrepareHardened(h, opts...)
		if err != nil {
			return outcome{}, err
		}
		res, err := p.Run(WithEngine(e), WithSeed(7), WithInput(w.Input), WithArgs(w.Args...))
		if err != nil {
			return outcome{}, err
		}
		return outcome{p.Fingerprint(), res}, nil
	}
	engines := []Engine{EngineBytecode, EngineLegacy}
	serial := map[string]outcome{}
	for _, v := range variants {
		for _, e := range engines {
			o, err := run(v.opts, e)
			if err != nil {
				t.Fatalf("%s/%v: %v", v.name, e, err)
			}
			serial[v.name+"/"+e.String()] = o
		}
	}
	prints := map[uint64]bool{}
	for _, v := range variants {
		prints[serial[v.name+"/bytecode"].fingerprint] = true
	}
	if len(prints) != len(variants) {
		t.Fatalf("%d distinct fingerprints over %d compile-option variants: an option did not reach the compile", len(prints), len(variants))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(variants)*len(engines))
	for rep := 0; rep < 2; rep++ {
		for _, v := range variants {
			for _, e := range engines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					key := v.name + "/" + e.String()
					o, err := run(v.opts, e)
					switch {
					case err != nil:
						errs <- fmt.Errorf("%s: %v", key, err)
					case o.fingerprint != serial[key].fingerprint:
						errs <- fmt.Errorf("%s: fingerprint %016x, serial %016x", key, o.fingerprint, serial[key].fingerprint)
					case !reflect.DeepEqual(o.res, serial[key].res):
						errs <- fmt.Errorf("%s: result differs from the serial run", key)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
