package lir

import (
	"fmt"
	"sort"

	"replayopt/internal/dex"
	"replayopt/internal/hgraph"
)

// BuildSSA translates a method's HGraph into SSA form — the HGraph-to-LLVM-
// bitcode pass of §3.5. The translation inserts the runtime scaffolding the
// paper describes: explicit bounds checks before array accesses, and GC
// safepoint checks both at loop headers and at back-edge sources (the
// "increased amount of heap-related operations, e.g. checks for GC" that can
// make naively translated code slower than the Android baseline).
func BuildSSA(prog *dex.Program, id dex.MethodID) (*Function, error) {
	m := prog.Methods[id]
	g, err := hgraph.Build(prog, m)
	if err != nil {
		return nil, err
	}
	f := &Function{Prog: prog, Method: id, Name: m.Name}

	// 1. Mirror the CFG. lbOf maps an hgraph block ID to its mirror, and
	// hbOf maps back from the mirror's ID.
	lbOf := make([]*Block, len(g.Blocks))
	hbOf := make([]*hgraph.Block, len(g.Blocks))
	for _, hb := range g.Blocks {
		lb := f.NewBlock()
		lbOf[hb.ID], hbOf[lb.ID] = lb, hb
		f.Blocks = append(f.Blocks, lb)
	}
	for _, hb := range g.Blocks {
		for _, s := range hb.Succs {
			AddEdge(lbOf[hb.ID], lbOf[s.ID])
		}
	}
	f.Recompute()

	// 2. Def sites per dex register.
	defs := map[int]map[*Block]bool{}
	for _, hb := range g.Blocks {
		lb := lbOf[hb.ID]
		for i := range hb.Insns {
			if w := hgraph.InsnDef(prog, &hb.Insns[i]); w >= 0 {
				if defs[w] == nil {
					defs[w] = map[*Block]bool{}
				}
				defs[w][lb] = true
			}
		}
	}
	// Parameters are defined at entry.
	entry := f.Blocks[0]
	params := make([]*Value, m.NumArgs)
	for i := 0; i < m.NumArgs; i++ {
		p := f.NewValue(OpParam, typeOfKind(m.Params[i]))
		p.Slot = int64(i)
		entry.Append(p)
		params[i] = p
		if defs[i] == nil {
			defs[i] = map[*Block]bool{}
		}
		defs[i][entry] = true
	}

	// 3. Phi placement at iterated dominance frontiers, in register order
	// (map iteration would make value numbering nondeterministic).
	df := f.dominanceFrontiers()
	phiReg := map[*Value]int{} // phi -> dex register it merges
	regs := make([]int, 0, len(defs))
	for reg := range defs {
		regs = append(regs, reg)
	}
	sort.Ints(regs)
	for _, reg := range regs {
		sites := defs[reg]
		work := make([]*Block, 0, len(sites))
		for b := range sites {
			work = append(work, b)
		}
		sort.Slice(work, func(i, j int) bool { return work[i].ID < work[j].ID })
		placed := map[*Block]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range df[b.ID] {
				if placed[d] || len(d.Preds) < 2 {
					continue
				}
				placed[d] = true
				phi := f.NewValue(OpPhi, TInt)
				phi.Block = d
				phi.Args = make([]*Value, len(d.Preds))
				d.Phis = append(d.Phis, phi)
				phiReg[phi] = reg
				if !sites[d] {
					sites[d] = true
					work = append(work, d)
				}
			}
		}
	}

	// 4. Rename: dominator-tree DFS carrying the def environment.
	kids := f.domChildren()
	endDefs := map[*Block]map[int]*Value{} // defs live at block end
	tr := &translator{f: f, g: g, hbOf: hbOf, prog: prog}

	var rename func(lb *Block, env map[int]*Value) error
	rename = func(lb *Block, env map[int]*Value) error {
		cur := make(map[int]*Value, len(env))
		for k, v := range env {
			cur[k] = v
		}
		for _, phi := range lb.Phis {
			cur[phiReg[phi]] = phi
		}
		if lb == entry {
			for i, p := range params {
				cur[i] = p
			}
		}
		if err := tr.translateBlock(lb, cur); err != nil {
			return err
		}
		endDefs[lb] = cur
		for _, k := range kids.children(lb) {
			if err := rename(k, cur); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rename(entry, map[int]*Value{}); err != nil {
		return nil, err
	}

	// 5. Fill phi arguments from each predecessor's end environment.
	for _, lb := range f.Blocks {
		for _, phi := range lb.Phis {
			reg := phiReg[phi]
			for i, p := range lb.Preds {
				d := endDefs[p][reg]
				if d == nil {
					// The register is not defined on this path; the value
					// can never be observed there — use a zero constant.
					z := f.NewValue(OpConstInt, TInt)
					p.Append(z)
					d = z
				}
				phi.Args[i] = d
			}
			// Infer the phi type from its inputs.
			for _, a := range phi.Args {
				if a.Type != TInt {
					phi.Type = a.Type
					break
				}
			}
		}
	}
	prunePhis(f)
	return f, nil
}

// ssaCache builds each method's SSA at most once and hands out copies: the
// function BuildSSA returned stays frozen in the cache, and every caller,
// the compile's root and each inlined call site alike, gets a Clone of it.
// Errors are cached too, since BuildSSA is a pure function of the program
// and the method. One cache serves one compile (CompileMethod, or every
// method of one Compile); it is not safe for concurrent use.
type ssaCache struct {
	prog  *dex.Program
	built map[dex.MethodID]ssaEntry
}

type ssaEntry struct {
	f   *Function
	err error
}

func newSSACache(prog *dex.Program) *ssaCache {
	return &ssaCache{prog: prog, built: map[dex.MethodID]ssaEntry{}}
}

// build returns a fresh copy of method id's SSA form.
func (c *ssaCache) build(id dex.MethodID) (*Function, error) {
	e, ok := c.built[id]
	if !ok {
		e.f, e.err = BuildSSA(c.prog, id)
		c.built[id] = e
	}
	if e.err != nil {
		return nil, e.err
	}
	return Clone(e.f), nil
}

// BuildAllSSA builds SSA once per analyzable method, indexed by method ID.
// Uncompilable methods and frontend failures yield nil. Each call builds new
// functions, so one analysis that prunes them (AnalyzeRanges recomputes)
// cannot change what another analysis reads.
func BuildAllSSA(prog *dex.Program) []*Function {
	fns := make([]*Function, len(prog.Methods))
	for i := range prog.Methods {
		if prog.Methods[i].Uncompilable {
			continue
		}
		if f, err := BuildSSA(prog, dex.MethodID(i)); err == nil {
			fns[i] = f
		}
	}
	return fns
}

// prunePhis removes trivial phis (all inputs identical or self-references).
// It reads each phi's inputs through one substitution and applies it once,
// so a chain of N trivial phis costs O(N) argument rewrites. It returns the
// substitution's work count.
func prunePhis(f *Function) int {
	var s substitution
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			kept := b.Phis[:0]
			for _, phi := range b.Phis {
				s.resolveArgs(phi)
				var uniq *Value
				trivial := true
				for _, a := range phi.Args {
					if a == phi {
						continue
					}
					if uniq == nil {
						uniq = a
					} else if uniq != a {
						trivial = false
						break
					}
				}
				if trivial && uniq != nil {
					s.add(phi, uniq)
					changed = true
					continue
				}
				kept = append(kept, phi)
			}
			b.Phis = kept
		}
	}
	s.apply(f)
	return s.work
}

func typeOfKind(k dex.Kind) Type {
	switch k {
	case dex.KindFloat:
		return TFloat
	case dex.KindRef:
		return TRef
	case dex.KindVoid:
		return TVoid
	default:
		return TInt
	}
}

type translator struct {
	f    *Function
	g    *hgraph.Graph
	hbOf []*hgraph.Block // source block by lir block ID
	prog *dex.Program
}

var lirAlu = map[dex.Op]Op{
	dex.OpAddInt: OpAdd, dex.OpSubInt: OpSub, dex.OpMulInt: OpMul,
	dex.OpDivInt: OpDiv, dex.OpRemInt: OpRem, dex.OpAndInt: OpAnd,
	dex.OpOrInt: OpOr, dex.OpXorInt: OpXor, dex.OpShlInt: OpShl,
	dex.OpShrInt:   OpShr,
	dex.OpAddFloat: OpFAdd, dex.OpSubFloat: OpFSub,
	dex.OpMulFloat: OpFMul, dex.OpDivFloat: OpFDiv,
}

func (tr *translator) translateBlock(lb *Block, env map[int]*Value) error {
	var hb *hgraph.Block
	if lb.ID < len(tr.hbOf) {
		hb = tr.hbOf[lb.ID]
	}
	if hb == nil {
		return fmt.Errorf("lir: no source block for b%d", lb.ID)
	}
	f := tr.f
	emit := func(v *Value) *Value {
		lb.AppendRaw(v)
		return v
	}
	// GC checks: at loop headers and at back-edge sources (§3.5).
	needGC := tr.g.IsLoopHeader(hb)
	if !needGC {
		for _, s := range hb.Succs {
			if tr.g.Dominates(s, hb) {
				needGC = true // back-edge source
				break
			}
		}
	}
	if needGC {
		emit(f.NewValue(OpGCCheck, TVoid))
	}

	for i := range hb.Insns {
		in := &hb.Insns[i]
		switch in.Op {
		case dex.OpNop:

		case dex.OpConstInt:
			v := emit(f.NewValue(OpConstInt, TInt))
			v.Imm = in.Imm
			env[in.A] = v
		case dex.OpConstFloat:
			v := emit(f.NewValue(OpConstFloat, TFloat))
			v.F = in.F
			env[in.A] = v
		case dex.OpMove:
			env[in.A] = env[in.B]

		case dex.OpAddInt, dex.OpSubInt, dex.OpMulInt, dex.OpDivInt, dex.OpRemInt,
			dex.OpAndInt, dex.OpOrInt, dex.OpXorInt, dex.OpShlInt, dex.OpShrInt:
			env[in.A] = emit(f.NewValue(lirAlu[in.Op], TInt, env[in.B], env[in.C]))
		case dex.OpAddFloat, dex.OpSubFloat, dex.OpMulFloat, dex.OpDivFloat:
			env[in.A] = emit(f.NewValue(lirAlu[in.Op], TFloat, env[in.B], env[in.C]))
		case dex.OpNegInt:
			env[in.A] = emit(f.NewValue(OpNeg, TInt, env[in.B]))
		case dex.OpNegFloat:
			env[in.A] = emit(f.NewValue(OpFNeg, TFloat, env[in.B]))
		case dex.OpIntToFloat:
			env[in.A] = emit(f.NewValue(OpI2F, TFloat, env[in.B]))
		case dex.OpFloatToInt:
			env[in.A] = emit(f.NewValue(OpF2I, TInt, env[in.B]))
		case dex.OpCmpFloat:
			env[in.A] = emit(f.NewValue(OpFCmp, TInt, env[in.B], env[in.C]))

		case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe:
			br := f.NewValue(OpBranch, TVoid, env[in.B], env[in.C])
			br.Cond = in.Op.Cond()
			emit(br)
		case dex.OpGoto:
			emit(f.NewValue(OpJump, TVoid))

		case dex.OpNewArrayInt, dex.OpNewArrayFloat, dex.OpNewArrayRef:
			kind := dex.KindInt
			if in.Op == dex.OpNewArrayFloat {
				kind = dex.KindFloat
			} else if in.Op == dex.OpNewArrayRef {
				kind = dex.KindRef
			}
			v := emit(f.NewValue(OpNewArray, TRef, env[in.B]))
			v.Sym = int(kind)
			// Allocation-site key, stable across inlining: the declaring
			// method and original bytecode pc (same keying as call sites).
			v.Imm = int64(hb.StartPC + i)
			v.Slot = int64(tr.f.Method)
			env[in.A] = v
		case dex.OpArrayLen:
			env[in.A] = emit(f.NewValue(OpArrLen, TInt, env[in.B]))

		case dex.OpALoadInt, dex.OpALoadFloat, dex.OpALoadRef:
			emit(f.NewValue(OpBoundsCheck, TVoid, env[in.B], env[in.C]))
			t := TInt
			if in.Op == dex.OpALoadFloat {
				t = TFloat
			} else if in.Op == dex.OpALoadRef {
				t = TRef
			}
			env[in.A] = emit(f.NewValue(OpArrLoad, t, env[in.B], env[in.C]))
		case dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef:
			emit(f.NewValue(OpBoundsCheck, TVoid, env[in.B], env[in.C]))
			emit(f.NewValue(OpArrStore, TVoid, env[in.B], env[in.C], env[in.A]))

		case dex.OpNewInstance:
			v := emit(f.NewValue(OpNewObject, TRef))
			v.Sym = in.Sym
			v.Imm = int64(hb.StartPC + i)
			v.Slot = int64(tr.f.Method)
			env[in.A] = v
		case dex.OpFLoadInt, dex.OpFLoadFloat, dex.OpFLoadRef:
			t := TInt
			if in.Op == dex.OpFLoadFloat {
				t = TFloat
			} else if in.Op == dex.OpFLoadRef {
				t = TRef
			}
			v := emit(f.NewValue(OpFieldLoad, t, env[in.B]))
			v.Slot = in.Imm
			env[in.A] = v
		case dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef:
			v := emit(f.NewValue(OpFieldStore, TVoid, env[in.B], env[in.A]))
			v.Slot = in.Imm

		case dex.OpSLoadInt, dex.OpSLoadFloat, dex.OpSLoadRef:
			t := TInt
			if in.Op == dex.OpSLoadFloat {
				t = TFloat
			} else if in.Op == dex.OpSLoadRef {
				t = TRef
			}
			v := emit(f.NewValue(OpStaticLoad, t))
			v.Slot = in.Imm
			env[in.A] = v
		case dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef:
			v := emit(f.NewValue(OpStaticStore, TVoid, env[in.A]))
			v.Slot = in.Imm

		case dex.OpInvokeStatic, dex.OpInvokeVirtual:
			callee := tr.prog.Methods[in.Sym]
			args := make([]*Value, len(in.Args))
			for j, r := range in.Args {
				args[j] = env[r]
			}
			op := OpCallStatic
			if in.Op == dex.OpInvokeVirtual {
				op = OpCallVirtual
			}
			v := emit(f.NewValue(op, typeOfKind(callee.Ret), args...))
			v.Sym = in.Sym
			// Type-profile site key, stable across inlining: the declaring
			// method and original bytecode pc.
			v.Imm = int64(hb.StartPC + i)
			v.Slot = int64(tr.f.Method)
			if callee.Ret != dex.KindVoid {
				env[in.A] = v
			}
		case dex.OpInvokeNative:
			nt := tr.prog.Natives[in.Sym]
			args := make([]*Value, len(in.Args))
			for j, r := range in.Args {
				args[j] = env[r]
			}
			v := emit(f.NewValue(OpCallNative, typeOfKind(nt.Ret), args...))
			v.Sym = in.Sym
			if nt.Ret != dex.KindVoid {
				env[in.A] = v
			}

		case dex.OpReturn:
			emit(f.NewValue(OpReturn, TVoid, env[in.A]))
		case dex.OpReturnVoid:
			emit(f.NewValue(OpReturn, TVoid))
		case dex.OpThrow:
			emit(f.NewValue(OpThrow, TVoid, env[in.A]))

		default:
			return fmt.Errorf("lir: untranslatable opcode %s", in.Op)
		}
	}
	// Blocks that fall through need an explicit jump terminator in SSA.
	if lb.Term() == nil {
		lb.AppendRaw(tr.f.NewValue(OpJump, TVoid))
	}
	return nil
}
