package ir

import "fmt"

// SiteRef names one instruction inside a function: block index plus
// instruction index within the block.
type SiteRef struct {
	Block int
	Index int
}

// String renders the site as "block#index" using the block's label.
func (s SiteRef) In(f *Func) string {
	if s.Block >= 0 && s.Block < len(f.Blocks) {
		return fmt.Sprintf("%s#%d", f.Blocks[s.Block].Name, s.Index)
	}
	return fmt.Sprintf("?%d#%d", s.Block, s.Index)
}

// DefUse holds the def and use chains of every register in a function:
// Defs[r] lists the instructions writing register r (parameters arrive
// pre-defined and have no def site), Uses[r] the instructions reading
// it. Sites appear in block order, then instruction order.
type DefUse struct {
	Fn   *Func
	Defs [][]SiteRef
	Uses [][]SiteRef
}

// BuildDefUse scans f once and records the def/use chains. Registers
// outside [0, NumRegs) are ignored — Validate reports them.
func BuildDefUse(f *Func) *DefUse {
	du := &DefUse{
		Fn:   f,
		Defs: make([][]SiteRef, f.NumRegs),
		Uses: make([][]SiteRef, f.NumRegs),
	}
	for bi, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			site := SiteRef{Block: bi, Index: ii}
			for _, a := range in.Args {
				if a.Kind == ValReg && a.Reg >= 0 && a.Reg < f.NumRegs {
					du.Uses[a.Reg] = append(du.Uses[a.Reg], site)
				}
			}
			if in.Dest >= 0 && in.Dest < f.NumRegs {
				du.Defs[in.Dest] = append(du.Defs[in.Dest], site)
			}
		}
	}
	return du
}

// UndefinedUse is a register read that no definition can reach.
type UndefinedUse struct {
	Reg  int
	Site SiteRef
}

// UndefinedUses returns the definite use-before-def reads of f: uses of
// a register along which *no* path from the entry carries a prior
// definition (parameters count as defined at entry). This is the
// must-undefined criterion — a register defined on only some paths is
// not reported, so the check has no false positives on merge-heavy
// code. Unreachable blocks are skipped (they are reported separately).
func (du *DefUse) UndefinedUses(c *CFG) []UndefinedUse {
	f := du.Fn
	nb := len(f.Blocks)
	if nb == 0 || f.NumRegs == 0 {
		return nil
	}
	words := (f.NumRegs + 63) / 64
	gen := make([][]uint64, nb) // registers defined inside each block
	out := make([][]uint64, nb) // may-be-defined at block exit
	entry := make([]uint64, words)
	for i := 0; i < len(f.Params) && i < f.NumRegs; i++ {
		entry[i/64] |= 1 << (i % 64)
	}
	for bi, blk := range f.Blocks {
		g := make([]uint64, words)
		for ii := range blk.Instrs {
			if d := blk.Instrs[ii].Dest; d >= 0 && d < f.NumRegs {
				g[d/64] |= 1 << (d % 64)
			}
		}
		gen[bi] = g
		out[bi] = make([]uint64, words)
	}

	// Forward may-analysis over the reachable blocks: OUT = IN | gen,
	// IN = union of predecessor OUTs (entry block additionally seeds the
	// parameter registers). Iterating in reverse postorder converges in
	// a couple of sweeps.
	rpo := c.ReversePostorder()
	in := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			for w := range in {
				in[w] = 0
			}
			if b == 0 {
				copy(in, entry)
			}
			for _, p := range c.Preds[b] {
				for w := range in {
					in[w] |= out[p][w]
				}
			}
			for w := range in {
				v := in[w] | gen[b][w]
				if v != out[b][w] {
					out[b][w] = v
					changed = true
				}
			}
		}
	}

	// Replay each reachable block against its IN set and flag reads of
	// never-defined registers.
	var bad []UndefinedUse
	cur := make([]uint64, words)
	for _, b := range rpo {
		for w := range cur {
			cur[w] = 0
		}
		if b == 0 {
			copy(cur, entry)
		}
		for _, p := range c.Preds[b] {
			for w := range cur {
				cur[w] |= out[p][w]
			}
		}
		for ii := range f.Blocks[b].Instrs {
			instr := &f.Blocks[b].Instrs[ii]
			for _, a := range instr.Args {
				if a.Kind != ValReg || a.Reg < 0 || a.Reg >= f.NumRegs {
					continue
				}
				if cur[a.Reg/64]&(1<<(a.Reg%64)) == 0 {
					bad = append(bad, UndefinedUse{Reg: a.Reg, Site: SiteRef{Block: b, Index: ii}})
				}
			}
			if d := instr.Dest; d >= 0 && d < f.NumRegs {
				cur[d/64] |= 1 << (d % 64)
			}
		}
	}
	return bad
}
