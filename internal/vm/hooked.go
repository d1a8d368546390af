package vm

import "polar/internal/ir"

// The hooked lowering runs Hooks clients (the taint engine) on the
// bytecode engine. It is lowerFunc's first phase alone: every source
// instruction lowers 1:1, with no fusion, no register allocation and no
// inline-cache slots, so register numbers are the IR's and Hooks.Builtin
// observes every call. Around each observed instruction sit weight-0
// hook instructions (bcHookLoad ... bcHookCall) that report its event
// with pre-decoded operand indices. Fuel, Stats, faults, coverage,
// exectrace and the profiler are exactly those of the default lowering,
// and the event stream is the tree-walker's, event for event:
//
//   - A post-hook follows its instruction, so a faulting instruction
//     reports nothing. Where the instruction overwrites an operand its
//     event needs (a load or alloc whose dest is its own address or
//     count register), a pre-hook saves the operand into a scratch
//     register first. A free's pre-hook records the object's tracked
//     type before the free drops it.
//   - A builtin call with no dest writes its result to the scratch
//     register, where the post-hook reads it.
//   - A call's pre-hook leaves the callee's Enter operands on the VM;
//     callBC fires Enter once the frame exists.
//   - CondBr and Exit precede their terminator and fire only when the
//     terminator will run: a branch or ret that runs out of fuel reports
//     nothing, as in the tree-walker.

// hookedFuncs returns the hooked lowering of every function
// (index-aligned with the default lowering), building it on first use.
// The build runs once per Program and is safe for concurrent callers.
func (p *Program) hookedFuncs() []*bcFunc {
	p.hookedOnce.Do(func() {
		p.hooked = make([]*bcFunc, len(p.mod.Funcs))
		for i, f := range p.mod.Funcs {
			p.hooked[i] = p.lowerHooked(f)
		}
	})
	return p.hooked
}

// lowerHooked lowers one function for hooked instances.
func (p *Program) lowerHooked(f *ir.Func) *bcFunc {
	scratch := int32(f.NumRegs)
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	bf := &bcFunc{fn: f, numRegs: f.NumRegs + 1, blocks: make([]bcBlock, len(f.Blocks)),
		code: make([]bcInstr, 0, 2*n)} // about one hook per instruction

	for bi, blk := range f.Blocks {
		start := int32(len(bf.code))
		cost := uint32(0)
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			out := p.lowerOne(in)
			cost += out.weight()
			hook := func(op bcOp) bcInstr {
				return bcInstr{op: op, dest: int32(in.Dest), ic: -1, irIn: in}
			}
			// saved returns the operand a post-hook reads for arg: arg
			// itself, or the scratch copy a pre-hook takes when the
			// instruction's dest overwrites it.
			saved := func(op ir.Value, arg bcArg) bcArg {
				if op.Kind != ir.ValReg || op.Reg != in.Dest {
					return arg
				}
				save := hook(bcHookSave)
				save.a, save.d2 = arg, scratch
				bf.code = append(bf.code, save)
				return bcArg{v: int64(scratch), reg: true}
			}
			var post bcInstr
			switch in.Op {
			case ir.OpLoad:
				post = hook(bcHookLoad)
				post.a, post.size = saved(in.Args[0], out.a), out.size
			case ir.OpStore:
				post = hook(bcHookStore)
				post.t0, post.b, post.size = regOf(in.Args[0]), out.b, out.size
			case ir.OpBin, ir.OpFBin, ir.OpCmp, ir.OpFCmp:
				post = hook(bcHookBin)
				post.t0, post.t1 = regOf(in.Args[0]), regOf(in.Args[1])
			case ir.OpItoF, ir.OpFtoI, ir.OpMov:
				post = hook(bcHookUn)
				post.t0 = regOf(in.Args[0])
			case ir.OpFieldPtr, ir.OpElemPtr, ir.OpPtrAdd:
				post = hook(bcHookPtr)
				post.t0 = regOf(in.Args[0])
			case ir.OpMemcpy:
				post = hook(bcHookMemcpy)
				post.a, post.b, post.c = out.a, out.b, out.c
			case ir.OpMemset:
				post = hook(bcHookMemset)
				post.a, post.c = out.a, out.c
			case ir.OpAlloc:
				post = hook(bcHookAlloc)
				post.a, post.size, post.st = out.a, out.size, out.st
				if len(in.Args) == 1 {
					post.a = saved(in.Args[0], out.a)
				}
			case ir.OpFree:
				pre := hook(bcHookFreeType)
				pre.a = out.a
				bf.code = append(bf.code, pre)
				post = hook(bcHookFree)
				post.a = out.a
			case ir.OpCall:
				regs := make([]int32, len(in.Args))
				for i, a := range in.Args {
					regs[i] = regOf(a)
				}
				list := int32(len(bf.hookRegs))
				bf.hookRegs = append(bf.hookRegs, regs)
				if out.op == bcCallFunc {
					pre := hook(bcHookCall)
					pre.off = list
					bf.code = append(bf.code, pre)
					break
				}
				if out.dest < 0 {
					out.dest = scratch
				}
				post = hook(bcHookBuiltin)
				post.off, post.d2 = list, out.dest
			case ir.OpCondBr:
				pre := hook(bcHookCondBr)
				pre.t0 = regOf(in.Args[0])
				bf.code = append(bf.code, pre)
			case ir.OpRet:
				pre := hook(bcHookExit)
				pre.t0 = NoReg
				if len(in.Args) == 1 {
					pre.t0 = regOf(in.Args[0])
				}
				bf.code = append(bf.code, pre)
			}
			bf.code = append(bf.code, out)
			if post.op != bcInvalid {
				bf.code = append(bf.code, post)
			}
		}
		bf.blocks[bi] = bcBlock{start: start, cost: cost, irb: blk}
	}
	bf.finish()
	return bf
}

// hook runs one of the hooked lowering's less frequent hook
// instructions; callBC runs the frequent ones inline.
func (v *VM) hook(f *bcFunc, in *bcInstr, regs []int64) {
	h := v.hooks
	switch in.op {
	case bcHookMemcpy:
		h.Memcpy(uint64(in.a.arg(regs)), uint64(in.b.arg(regs)), max(int(in.c.arg(regs)), 0))
	case bcHookMemset:
		h.Memset(uint64(in.a.arg(regs)), max(int(in.c.arg(regs)), 0))
	case bcHookAlloc:
		h.Alloc(int(in.dest), uint64(regs[in.dest]), int(in.size)*max(int(in.a.arg(regs)), 1), in.st)
	case bcHookFree:
		h.Free(uint64(in.a.arg(regs)), v.hookType)
	case bcHookBuiltin:
		h.Builtin(in.irIn.Callee, f.hookRegs[in.off], v.callScratch.Args, regs[in.d2], int(in.dest))
	case bcHookSave:
		regs[in.d2] = in.a.arg(regs)
	case bcHookFreeType:
		v.hookType = v.objects[uint64(in.a.arg(regs))]
	case bcHookCall:
		v.hookArgs, v.hookDest = f.hookRegs[in.off], int(in.dest)
	}
}
