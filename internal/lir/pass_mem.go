package lir

import (
	"sort"

	"replayopt/internal/dex"
	"replayopt/internal/sa"
)

// Memory optimization passes: store-to-load forwarding, dead store
// elimination, loop-invariant code motion, bounds-check elimination, and the
// paper's custom post-loop GC-check elimination (§3.5). The safe variants are
// alias-aware: they consult the Andersen points-to facts (alias.go) and the
// interprocedural mod/ref summaries (internal/sa/pts, read through
// PassContext.Static) to look past accesses and calls that provably touch
// disjoint memory, degrading to kind/slot matching when facts are missing.
// The deliberately unsound alias-blind dse variant — a Fig. 1 wrong-output
// source the verify stage must catch — is kept intact, facts or not.

func init() { registerMemPasses() }

func registerMemPasses() {
	register(&PassInfo{
		Name: "storeforward",
		Doc:  "forward stored values to later loads of the same location (per block)",
		Run: func(f *Function, ctx *PassContext, _ map[string]int) error {
			runStoreForward(f, ctx)
			runDCE(f)
			return nil
		},
	})
	register(&PassInfo{
		Name: "dse",
		Doc:  "remove stores overwritten before any possible read (alias-aware: only may-alias loads and calls whose ref set covers the location block removal)",
		Params: []ParamSpec{
			// alias-blind=1 matches stores by slot/shape only, ignoring
			// whether the base objects alias — removes stores other code
			// still reads (a deliberate Fig. 1 wrong-output source).
			{Name: "alias-blind", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runDSE,
	})
	register(&PassInfo{
		Name: "licm",
		Doc:  "hoist loop-invariant computation to the preheader",
		Params: []ParamSpec{
			// loads=1 also hoists memory loads past loop stores that provably
			// never alias the loaded location and calls whose interprocedural
			// mod set misses it; without alias facts this degrades to loops
			// containing no stores or calls at all. Aggressive either way:
			// hoisting may introduce a trap for zero-trip loops.
			{Name: "loads", Default: 0, Min: 0, Max: 1},
			// unsafe=1 hoists loads ignoring stores and calls in the loop,
			// reading stale values.
			{Name: "unsafe", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runLICM,
		CFG: true, // inserts preheaders
	})
	register(&PassInfo{
		Name: "bce",
		Doc:  "remove provably redundant bounds checks",
		Params: []ParamSpec{
			// aggressive=1 removes every bounds check, trusting the
			// program to be in-bounds (silent corruption if it is not).
			{Name: "aggressive", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runBCE,
	})
	register(&PassInfo{
		Name: "gccheckelim",
		Doc:  "custom pass (§3.5): deduplicate GC safepoint checks within each loop; with the effect analysis, drop them entirely from allocation-free loops",
		Run: func(f *Function, ctx *PassContext, _ map[string]int) error {
			runGCCheckElim(f, ctx)
			return nil
		},
	})
}

// locKey identifies an abstract memory location.
type locKey struct {
	kind Op // OpArrStore/OpFieldStore/OpStaticStore family marker
	base *Value
	idx  *Value
	slot int64
}

func loadKey(v *Value) (locKey, bool) {
	switch v.Op {
	case OpArrLoad:
		return locKey{kind: OpArrStore, base: v.Args[0], idx: v.Args[1]}, true
	case OpFieldLoad:
		return locKey{kind: OpFieldStore, base: v.Args[0], slot: v.Slot}, true
	case OpStaticLoad:
		return locKey{kind: OpStaticStore, slot: v.Slot}, true
	}
	return locKey{}, false
}

func storeKey(v *Value) (locKey, *Value, bool) {
	switch v.Op {
	case OpArrStore:
		return locKey{kind: OpArrStore, base: v.Args[0], idx: v.Args[1]}, v.Args[2], true
	case OpFieldStore:
		return locKey{kind: OpFieldStore, base: v.Args[0], slot: v.Slot}, v.Args[1], true
	case OpStaticStore:
		return locKey{kind: OpStaticStore, slot: v.Slot}, v.Args[0], true
	}
	return locKey{}, nil, false
}

func isCall(v *Value) bool {
	switch v.Op {
	case OpCallStatic, OpCallVirtual, OpCallNative:
		return true
	}
	return false
}

// keyLoc abstracts a locKey to the interprocedural location vocabulary.
func keyLoc(k locKey) sa.MemLoc {
	switch k.kind {
	case OpFieldStore:
		return sa.MemLoc{Kind: sa.LocField, Slot: k.slot}
	case OpStaticStore:
		return sa.MemLoc{Kind: sa.LocGlobal, Slot: k.slot}
	}
	return sa.MemLoc{Kind: sa.LocElem}
}

// keysMayAlias reports whether two abstract locations can overlap, using the
// points-to facts to separate bases and constant indices. Conservative
// without converged facts (beyond kind/slot/base identity).
func keysMayAlias(fx *AliasFacts, a, b locKey) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case OpStaticStore:
		return a.slot == b.slot
	case OpFieldStore:
		if a.slot != b.slot {
			return false
		}
	default: // OpArrStore
		if a.base == b.base && a.idx != nil && b.idx != nil &&
			a.idx.Op == OpConstInt && b.idx.Op == OpConstInt && a.idx.Imm != b.idx.Imm {
			return false
		}
	}
	if a.base == b.base {
		return true
	}
	if fx == nil || !fx.Converged() {
		return true
	}
	return fx.overlap(fx.pts(a.base), fx.pts(b.base))
}

// runStoreForward forwards stored (or previously loaded) values to later
// loads of the same location within a block, invalidating on stores to
// may-aliasing locations and on calls whose interprocedural mod set covers an
// available location (every call, when summaries are missing).
func runStoreForward(f *Function, ctx *PassContext) {
	fx := AnalyzeAlias(f, ctx.Static)
	var subst substitution
	for _, b := range f.Blocks {
		avail := map[locKey]*Value{}
		dead := map[*Value]bool{}
		for _, v := range b.Insns {
			subst.resolveArgs(v)
			if isCall(v) {
				mod := fx.ModifiedBy(v)
				if mod.Top {
					avail = map[locKey]*Value{} // the callee may write anything
				} else {
					for ek := range avail {
						if mod.Contains(keyLoc(ek)) {
							delete(avail, ek)
						}
					}
				}
				continue
			}
			if k, val, ok := storeKey(v); ok {
				// A store invalidates exactly the locations it may alias;
				// the stored location itself becomes available.
				for ek := range avail {
					if ek != k && keysMayAlias(fx, ek, k) {
						delete(avail, ek)
					}
				}
				avail[k] = val
				continue
			}
			if k, ok := loadKey(v); ok {
				if prev, hit := avail[k]; hit && prev.Type == v.Type {
					if ctx.Tracing() {
						ctx.Note("storeforward.forward", NoteAnchor(b, v), KV("from", int64(prev.ID)))
					}
					subst.add(v, prev)
					dead[v] = true
				} else {
					avail[k] = v // later identical loads reuse this one
				}
			}
		}
		removeFromBlock(b, dead)
	}
	subst.apply(f)
}

// runDSE removes a store when a later store in the same block definitely
// overwrites it with no intervening read: a may-alias load, or a call whose
// interprocedural ref set covers the location (every call, when summaries are
// missing). The alias-blind variant matches by shape only (ignoring base
// identity) and skips the read check for loads whose index differs
// syntactically — both unsound.
func runDSE(f *Function, ctx *PassContext, params map[string]int) error {
	aliasBlind := params["alias-blind"] == 1
	fx := AnalyzeAlias(f, ctx.Static)
	for _, b := range f.Blocks {
		dead := map[*Value]bool{}
		insns := b.Insns
		for i := 0; i < len(insns); i++ {
			k, _, ok := storeKey(insns[i])
			if !ok {
				continue
			}
		scan:
			for j := i + 1; j < len(insns); j++ {
				w := insns[j]
				if isCall(w) {
					ref := fx.ReadBy(w)
					if ref.Top || ref.Contains(keyLoc(k)) {
						break // the callee may read the location
					}
					continue
				}
				if lk, isLoad := loadKey(w); isLoad {
					if aliasBlind {
						// BUG: only exact syntactic matches count as reads.
						if lk == k {
							break scan
						}
						continue
					}
					// Safe: a load the facts cannot separate may read it.
					if keysMayAlias(fx, lk, k) {
						break scan
					}
					continue
				}
				if wk, _, isStore := storeKey(w); isStore {
					if wk == k {
						dead[insns[i]] = true // exactly overwritten
						break scan
					}
					if aliasBlind && wk.kind == k.kind && wk.slot == k.slot {
						// BUG: "overwritten" by a store to a different base.
						dead[insns[i]] = true
						break scan
					}
					continue
				}
				if w.IsTerminator() {
					break scan
				}
			}
			if dead[insns[i]] && ctx.Tracing() {
				ctx.Note("dse.remove", NoteAnchor(b, insns[i]), KV("alias-blind", b2i(aliasBlind)))
			}
		}
		removeFromBlock(b, dead)
	}
	return nil
}

func runLICM(f *Function, ctx *PassContext, params map[string]int) error {
	hoistLoads := params["loads"] == 1
	unsafe := params["unsafe"] == 1
	fx := AnalyzeAlias(f, ctx.Static)
	for _, l := range f.Loops() {
		ph := ensurePreheader(f, l)
		if ph == nil {
			continue
		}
		// Loop memory summary for load hoisting: every store and call the
		// loop (including nested loops) can execute, in program order.
		var loopStores, loopCalls []*Value
		for _, b := range l.Blocks {
			for _, v := range b.Insns {
				if _, _, ok := storeKey(v); ok {
					loopStores = append(loopStores, v)
				}
				if isCall(v) {
					loopCalls = append(loopCalls, v)
				}
			}
		}
		// loadStable reports that no loop store may alias the load and no
		// loop call's interprocedural mod set covers its location, so the
		// loaded value is invariant across iterations. OpArrLen reads only
		// the immutable length header — stores cannot change it.
		loadStable := func(v *Value) bool {
			if v.Op == OpArrLen {
				return true
			}
			loc, ok := fx.Loc(v)
			if !ok {
				return false
			}
			for _, s := range loopStores {
				if fx.MayAlias(v, s) {
					return false
				}
			}
			for _, c := range loopCalls {
				mod := fx.ModifiedBy(c)
				if mod.Top || mod.Contains(loc) {
					return false
				}
			}
			return true
		}
		inLoop := func(v *Value) bool {
			return v.Block != nil && l.Contains(v.Block)
		}
		invariant := func(v *Value) bool {
			for _, a := range v.Args {
				if inLoop(a) {
					return false
				}
			}
			return true
		}
		for changed := true; changed; {
			changed = false
			for _, b := range l.Blocks {
				var moved []*Value
				for _, v := range b.Body() {
					hoistable := v.IsPure() && v.Op != OpPhi && v.Op != OpParam
					if !hoistable && (hoistLoads || unsafe) {
						switch v.Op {
						case OpArrLoad, OpFieldLoad, OpStaticLoad, OpArrLen:
							hoistable = unsafe || loadStable(v)
						}
					}
					if hoistable && invariant(v) {
						moved = append(moved, v)
					}
				}
				if len(moved) > 0 {
					if ctx.Tracing() {
						for _, v := range moved {
							ctx.Note("licm.hoist", NoteAnchor(b, v),
								KV("to", int64(ph.ID)), KV("depth", int64(l.Depth)))
						}
					}
					dead := map[*Value]bool{}
					for _, v := range moved {
						dead[v] = true
					}
					removeFromBlock(b, dead)
					for _, v := range moved {
						ph.Append(v)
					}
					changed = true
				}
			}
		}
	}
	return nil
}

// runBCE removes bounds checks that are dominated by an identical check
// (GVN-style) or guarded by the canonical loop pattern
// `for i = 0; i < arr.length; i++`; the aggressive variant removes all of
// them.
func runBCE(f *Function, ctx *PassContext, params map[string]int) error {
	if params["aggressive"] == 1 {
		dead := map[*Value]bool{}
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if v.Op == OpBoundsCheck {
					if ctx.Tracing() {
						ctx.Note("bce.aggressive", NoteAnchor(b, v))
					}
					dead[v] = true
				}
			}
		}
		removeValues(f, dead)
		return nil
	}
	// Induction pattern.
	dead := map[*Value]bool{}
	for _, l := range f.Loops() {
		head := l.Head
		t := head.Term()
		if t == nil || t.Op != OpBranch || t.Cond != CondLt {
			continue
		}
		iv, limit := t.Args[0], t.Args[1]
		if iv.Op != OpPhi || iv.Block != head {
			continue
		}
		// The branch must exit the loop on false (Succs[1] outside).
		if l.Contains(head.Succs[1]) || !l.Contains(head.Succs[0]) {
			continue
		}
		// iv = phi(c0 >= 0, iv + positive const).
		okInit, okStep := false, false
		for _, a := range iv.Args {
			if c, isC := isConstInt(a); isC && c >= 0 {
				okInit = true
				continue
			}
			if a.Op == OpAdd && a.Args[0] == iv {
				if s, isC := isConstInt(a.Args[1]); isC && s > 0 {
					okStep = true
					continue
				}
			}
			// Unknown input: not canonical.
			okInit = false
			okStep = false
			break
		}
		if !okInit || !okStep {
			continue
		}
		// limit must be len(arr) for an array that cannot change during the
		// loop (defined outside it, or reloaded from a global the loop never
		// stores to).
		if limit.Op != OpArrLen {
			continue
		}
		arr := limit.Args[0]
		if l.Contains(arr.Block) && !stableGlobalArray(l, arr) {
			continue
		}
		for _, b := range l.Blocks {
			for _, v := range b.Insns {
				if v.Op == OpBoundsCheck && v.Args[1] == iv && sameArrayIn(l, v.Args[0], arr) {
					if ctx.Tracing() {
						ctx.Note("bce.induction", NoteAnchor(b, v), KV("iv", int64(iv.ID)))
					}
					dead[v] = true
				}
			}
		}
	}
	removeValues(f, dead)
	// Constant-index checks against known allocation sizes.
	dead = map[*Value]bool{}
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpBoundsCheck {
				continue
			}
			arr, idx := v.Args[0], v.Args[1]
			n, nok := int64(0), false
			if arr.Op == OpNewArray {
				n, nok = isConstInt(arr.Args[0])
			}
			c, cok := isConstInt(idx)
			if nok && cok && c >= 0 && c < n {
				if ctx.Tracing() {
					ctx.Note("bce.const", NoteAnchor(b, v), KV("index", c), KV("length", n))
				}
				dead[v] = true
			}
		}
	}
	removeValues(f, dead)
	return nil
}

// sameArrayIn reports whether two array values are provably the same object
// throughout the loop: identical SSA values, or both loads of the same
// static global that the loop never stores to (globals are reloaded at each
// use site, so syntactic equality is too strict).
func sameArrayIn(l *Loop, a, b *Value) bool {
	if a == b {
		return true
	}
	if a.Op == OpStaticLoad && b.Op == OpStaticLoad && a.Slot == b.Slot {
		return stableGlobalSlot(l, a.Slot)
	}
	return false
}

// stableGlobalArray reports whether v is a load of a global slot the loop
// never writes (directly or through calls).
func stableGlobalArray(l *Loop, v *Value) bool {
	return v.Op == OpStaticLoad && stableGlobalSlot(l, v.Slot)
}

func stableGlobalSlot(l *Loop, slot int64) bool {
	for _, b := range l.Blocks {
		for _, v := range b.Insns {
			if v.Op == OpStaticStore && v.Slot == slot {
				return false
			}
			if isCall(v) {
				return false // a callee may store the global
			}
		}
	}
	return true
}

// runGCCheckElim keeps a single GC check per loop (the paper's custom
// post-unroll optimization) and removes checks outside any loop. When the
// effect analysis is available, a loop whose body — including everything its
// calls can transitively reach — performs no managed allocation keeps no
// check at all: the simulated GC triggers only on the allocation clock, so a
// safepoint in an allocation-free loop can never observe a crossed threshold
// that was not already crossed on entry.
func runGCCheckElim(f *Function, ctx *PassContext) {
	loops := f.Loops()
	// Innermost loops claim their checks first so an outer loop never
	// deletes an inner loop's only safepoint.
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth > loops[j].Depth
		}
		return loops[i].Head.rpo < loops[j].Head.rpo
	})
	dead := map[*Value]bool{}
	inAnyLoop := map[*Block]bool{}
	for _, l := range loops {
		for _, b := range l.Blocks {
			inAnyLoop[b] = true
		}
	}
	// Innermost-first: keep the first check per loop, drop the rest. An
	// allocation-free loop (outer loops of one are never allocation-free,
	// since their block sets include it) keeps none.
	kept := map[*Value]bool{}
	for _, l := range loops {
		allocFree := ctx.Static != nil && loopAllocFree(f, l, ctx.Static)
		if allocFree && ctx.Tracing() {
			ctx.Note("gccheckelim.allocfree", NoteAnchor(l.Head, nil), KV("depth", int64(l.Depth)))
		}
		var first *Value
		// The header dominates the loop, so it comes first in l.Blocks.
		for _, b := range l.Blocks {
			for _, v := range b.Insns {
				if v.Op != OpGCCheck || dead[v] {
					continue
				}
				if allocFree {
					dead[v] = true
					continue
				}
				if first == nil || kept[v] {
					if first == nil {
						first = v
						kept[v] = true
					}
					continue
				}
				if !kept[v] {
					dead[v] = true
				}
			}
		}
	}
	// Straight-line checks outside loops are unnecessary (calls already
	// poll).
	for _, b := range f.Blocks {
		if inAnyLoop[b] {
			continue
		}
		for _, v := range b.Insns {
			if v.Op == OpGCCheck {
				dead[v] = true
			}
		}
	}
	removeValues(f, dead)
}

// loopAllocFree reports whether no instruction in l — nor anything reachable
// through its managed calls, per the effect summaries — allocates. Natives
// and intrinsics never allocate managed memory in this VM.
func loopAllocFree(f *Function, l *Loop, static *sa.Result) bool {
	for _, b := range l.Blocks {
		for _, v := range b.Insns {
			switch v.Op {
			case OpNewArray, OpNewObject:
				return false
			case OpCallStatic:
				if static.Summary[v.Sym]&sa.EffAlloc != 0 {
					return false
				}
			case OpCallVirtual:
				// The dispatch may reach any instantiated implementation.
				for _, t := range static.Graph.ImplsOf(dex.MethodID(v.Sym)) {
					if static.Summary[t]&sa.EffAlloc != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}
