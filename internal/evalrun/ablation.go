package evalrun

import (
	"fmt"
	"strings"

	"polar/internal/core"
	"polar/internal/layout"
	"polar/internal/vm"
	"polar/internal/workload"
)

// AblationRow measures one design-choice variant on one app.
type AblationRow struct {
	Config      string
	App         string
	OverheadPct float64
	// CacheHitPct is the offset-cache hit rate of one representative
	// hardened run (0 for the stateless arm: no cache exists to hit).
	CacheHitPct float64
	// MetaProbes counts metadata-table lookups in that run — the
	// stateless arm's defining number is 0: no cache needed, no table
	// probed, every offset derived from the keyed hash.
	MetaProbes uint64
	// MetaBytesPerLive is the strategy's metadata footprint amortized
	// over the peak live-object population (bytes/object; 0 stateless).
	MetaBytesPerLive float64
	// FusedDispatches counts bcFused superinstruction dispatches in the
	// representative run (0 on the legacy-engine arm: the tree-walker
	// never dispatches fused runs).
	FusedDispatches uint64
	// ICHitPct is the per-site inline layout-cache hit rate of that run
	// (hits / (hits+misses); meaningful in both layout modes — the
	// stateless arm memoizes derived offsets the same way).
	ICHitPct float64
	// ICSeededHitPct is the hit rate of an otherwise-identical run whose
	// compile consumed the static site classification (DESIGN.md §14):
	// polymorphic sites lose their IC slot, runs-once monomorphic sites
	// share one. Comparing it against ICHitPct isolates what static
	// seeding buys on each configuration.
	ICSeededHitPct float64
}

// ablationConfigs enumerates the DESIGN.md §4 variants. The offset
// cache and layout dedup are the paper's two explicit optimizations
// (§V.B); the copy re-randomization switch is called out in §IV.A.2;
// dummy count and cache-line mode are the randomization knobs.
func ablationConfigs(seed int64) []struct {
	name string
	cfg  core.Config
} {
	mk := func(mod func(*core.Config)) core.Config {
		c := core.DefaultConfig(seed)
		mod(&c)
		return c
	}
	return []struct {
		name string
		cfg  core.Config
	}{
		{"default", mk(func(c *core.Config) {})},
		{"no-cache", mk(func(c *core.Config) { c.CacheSize = -1 })},
		{"no-copy-rerand", mk(func(c *core.Config) { c.RerandomizeOnCopy = false })},
		{"no-dummies", mk(func(c *core.Config) {
			c.Layout.MinDummies, c.Layout.MaxDummies = 0, 0
			c.Layout.BoobyTraps = false
		})},
		{"max-dummies", mk(func(c *core.Config) {
			c.Layout.MinDummies, c.Layout.MaxDummies = 3, 4
		})},
		{"cacheline-mode", mk(func(c *core.Config) { c.Layout.Mode = layout.ModeCacheLine })},
		// Layout-resolution ablation (DESIGN.md §12): SPAM-style keyed
		// derivation instead of the metadata table. The interesting
		// columns are MetaProbes (identically 0 — no cache needed) and
		// MetaBytesPerLive (identically 0), traded against UAF detection.
		{"stateless", mk(func(c *core.Config) { c.LayoutMode = core.LayoutModeStateless })},
		// Execution-engine ablation: the default runtime config on the
		// tree-walking reference engine. Overhead percentages are
		// relative (hardened/baseline on the same engine), so comparing
		// this row against "default" shows whether the instrumentation
		// overhead story depends on interpreter speed.
		{legacyEngineConfig, mk(func(c *core.Config) {})},
	}
}

// legacyEngineConfig names the ablation variant that pins the
// tree-walking engine (every other variant runs on the harness engine,
// normally bytecode).
const legacyEngineConfig = "legacy-engine"

// Ablation measures the overhead of each configuration variant on the
// member-access-bound (mcf), allocation-bound (sjeng) and copy-bound
// (h264ref) apps — the three profiles that exercise the three ablatable
// mechanisms. The config × app grid is flattened over the worker pool;
// all reps of one cell stay on one worker.
func (h Harness) Ablation(reps int, seed int64) ([]AblationRow, error) {
	apps := []string{"429.mcf", "458.sjeng", "464.h264ref"}
	cfgs := ablationConfigs(seed)
	type cell struct {
		cfgName string
		cfg     core.Config
		app     string
	}
	var cells []cell
	for _, cfgEntry := range cfgs {
		for _, name := range apps {
			cells = append(cells, cell{cfgEntry.name, cfgEntry.cfg, name})
		}
	}
	rows := make([]AblationRow, len(cells))
	err := ForEach(len(cells), h.Workers, func(i int) error {
		c := cells[i]
		w, err := workload.ByName(c.app)
		if err != nil {
			return err
		}
		sp := h.Span(c.cfgName+"/"+c.app, "ablation")
		defer sp.End()
		var vmOpts []vm.Option
		if c.cfgName == legacyEngineConfig {
			vmOpts = append(vmOpts, vm.WithEngine(vm.EngineLegacy))
		}
		base, polar, rt, perf, err := h.measureWorkload(w, reps, TaskSeed(seed, "ablation/"+c.cfgName+"/"+c.app), c.cfg, vmOpts...)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.cfgName, c.app, err)
		}
		row := AblationRow{
			Config:          c.cfgName,
			App:             c.app,
			OverheadPct:     overheadPct(base, polar),
			FusedDispatches: perf.FusedDispatches,
			ICHitPct:        100 * perf.HitRate(),
		}
		if rt != nil {
			st := rt.Stats()
			if total := st.CacheHits + st.CacheMisses; total > 0 {
				row.CacheHitPct = 100 * float64(st.CacheHits) / float64(total)
			}
			row.MetaProbes = st.MetaProbes
			row.MetaBytesPerLive = rt.MetadataBytesPerLiveObject()
		}
		// The seeded arm of the IC column: a fresh analyze→seed→compile of
		// the same app run once under the same configuration and the
		// representative rep's seed (measureWorkload's last hardened rep).
		seededHit, err := h.seededHitPct(c.app, c.cfg, TaskSeed(seed, "ablation/"+c.cfgName+"/"+c.app)+int64(reps), vmOpts...)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.cfgName, c.app, err)
		}
		row.ICSeededHitPct = seededHit
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblation renders the ablation grid.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: overhead by runtime configuration (DESIGN.md §4)\n")
	b.WriteString("metadata columns from one representative hardened run per cell;\n")
	b.WriteString("the stateless arm shows 0 probes / 0 bytes — no cache needed\n")
	b.WriteString(fmt.Sprintf("%-16s %-14s %9s %9s %12s %10s %10s %8s %11s\n",
		"config", "app", "ovhd%", "cache-hit%", "meta-probes", "metaB/obj", "fused", "ic-hit%", "ic-seeded%"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-16s %-14s %8.1f%% %9.1f%% %12d %10.1f %10d %7.1f%% %10.1f%%\n",
			r.Config, r.App, r.OverheadPct, r.CacheHitPct, r.MetaProbes, r.MetaBytesPerLive,
			r.FusedDispatches, r.ICHitPct, r.ICSeededHitPct))
	}
	return b.String()
}
