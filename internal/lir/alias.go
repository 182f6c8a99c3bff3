package lir

import (
	"sort"

	"replayopt/internal/dex"
	"replayopt/internal/sa"
)

// Intraprocedural Andersen-style points-to analysis (the engine behind the
// alias-aware memory passes — storeforward, dse, licm, stackalloc — and
// behind the internal/sa/pts interprocedural driver). Flow-insensitive and
// field-sensitive: abstract objects are this function's allocation sites plus
// one pseudo-object per reference parameter plus Extern ("any object that
// pre-exists this invocation or was made by a callee"), and each ref-typed
// SSA value gets the set of objects it may denote, with per-(object, slot)
// contents for reference fields. Three fact families ride on top:
//
//   - may-alias disambiguation between memory accesses (kind, slot, base
//     points-to disjointness, constant-index separation), which is what lets
//     DSE look past unrelated loads and store-to-load forwarding survive
//     unrelated stores;
//   - call mod/ref sets read from the interprocedural summaries
//     (sa.Result.Alias, attached by internal/sa/pts over the CHA/RTA call
//     graph with virtual fan-out via ImplsOf), which is what lets licm hoist
//     loads past calls that provably touch disjoint locations;
//   - escape verdicts per allocation site (returned, thrown, stored into
//     reachable memory, or handed to an escaping callee parameter), which is
//     what stackalloc and the verify-map store elision consume.
//
// The freshness argument that makes the pseudo-object partition sound: a
// parameter's referent exists before the invocation begins, while a local
// allocation site (as an SSA value) always denotes an object created by this
// activation after entry — so a parameter and a local site can never denote
// the same object, even under recursion. Extern can only denote a local site
// once that site has escaped.
//
// Everything here is deterministic: iteration is over the function's slices
// in program order (the per-object field tables are walked via the
// program-order object list, never by map range), so the facts — and
// therefore the passes and the GA search traces built on them — are
// byte-identical across runs.

// objKind classifies an abstract object.
const (
	objNone  uint8 = iota
	objSite        // a local allocation site (OpNewArray/OpNewObject)
	objParam       // a reference parameter's pre-existing referent
)

// elemSlot is the field-table key for array-element contents (distinct from
// every real field slot, which are >= 0).
const elemSlot = int64(-1)

// objSet is a set of abstract objects: the Extern bit plus sorted value IDs
// of sites and parameter pseudo-objects.
type objSet struct {
	extern bool
	ids    []int32
}

func (s *objSet) addID(id int32) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		return false
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
	return true
}

func (s *objSet) addSet(o objSet) bool {
	changed := false
	if o.extern && !s.extern {
		s.extern = true
		changed = true
	}
	for _, id := range o.ids {
		if s.addID(id) {
			changed = true
		}
	}
	return changed
}

// fldEnt is the ref contents of one (object, slot) cell.
type fldEnt struct {
	slot int64
	set  objSet
}

// AliasFacts is the analysis result for one function.
type AliasFacts struct {
	f      *Function
	static *sa.Result
	// converged is false when the fixpoint hit the round cap; every query
	// then degrades to the conservative answer (may alias, Top mod/ref,
	// everything escapes).
	converged bool
	kind      []uint8  // by Value.ID: objNone/objSite/objParam
	val       []objSet // by Value.ID: points-to set of ref-typed values
	esc       []bool   // by object ID: referent may be reachable after return
	leaked    []bool   // by object ID: handed to a callee (contents tainted)
	fld       map[int32][]fldEnt
	objs      []int32 // program-order object IDs (deterministic iteration)
}

// maxAliasRounds caps the fixpoint sweeps; the object universe is tiny (one
// entry per allocation site and ref parameter), so real functions converge in
// two or three.
const maxAliasRounds = 32

// AnalyzeAlias computes points-to, escape, and may-alias facts for f. static
// (and static.Alias) may be nil; the analysis then has no interprocedural
// facts, so every call escapes its ref arguments and answers Top mod/ref. The
// function is not modified.
func AnalyzeAlias(f *Function, static *sa.Result) *AliasFacts {
	n := f.NumValues()
	fx := &AliasFacts{
		f:      f,
		static: static,
		kind:   make([]uint8, n),
		val:    make([]objSet, n),
		esc:    make([]bool, n),
		leaked: make([]bool, n),
		fld:    map[int32][]fldEnt{},
	}
	// Object discovery in program order.
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			switch v.Op {
			case OpNewArray, OpNewObject:
				fx.kind[v.ID] = objSite
				fx.objs = append(fx.objs, int32(v.ID))
			case OpParam:
				if v.Type == TRef {
					fx.kind[v.ID] = objParam
					fx.objs = append(fx.objs, int32(v.ID))
				}
			}
		}
	}
	for round := 0; ; round++ {
		if round == maxAliasRounds {
			return fx // converged stays false: every query answers top
		}
		if !fx.sweep() {
			fx.converged = true
			return fx
		}
	}
}

// fldSet returns the (object, slot) contents cell, creating it on demand.
func (fx *AliasFacts) fldSet(obj int32, slot int64) *fldEnt {
	ents := fx.fld[obj]
	for i := range ents {
		if ents[i].slot == slot {
			return &ents[i]
		}
	}
	fx.fld[obj] = append(ents, fldEnt{slot: slot})
	return &fx.fld[obj][len(fx.fld[obj])-1]
}

// escapeSet marks every object in s escaped (and leaked).
func (fx *AliasFacts) escapeSet(s objSet) bool {
	changed := false
	for _, id := range s.ids {
		if !fx.esc[id] {
			fx.esc[id] = true
			changed = true
		}
		if !fx.leaked[id] {
			fx.leaked[id] = true
			changed = true
		}
	}
	return changed
}

// leakSet marks every object in s leaked: a callee saw the reference (and may
// have stored anything into its fields) but cannot retain it.
func (fx *AliasFacts) leakSet(s objSet) bool {
	changed := false
	for _, id := range s.ids {
		if !fx.leaked[id] {
			fx.leaked[id] = true
			changed = true
		}
	}
	return changed
}

// pts returns the points-to set of v (empty for non-ref or unknown values).
func (fx *AliasFacts) pts(v *Value) objSet {
	if v == nil || v.ID < 0 || v.ID >= len(fx.val) {
		return objSet{extern: true}
	}
	return fx.val[v.ID]
}

// argEscapes reports whether handing a reference as argument j of call may
// let the callee retain it, joining over every CHA/RTA implementation.
// Unknown callees and missing summaries escape.
func (fx *AliasFacts) argEscapes(call *Value, j int) bool {
	if fx.static == nil || fx.static.Alias == nil {
		return true
	}
	al := fx.static.Alias
	if call.Op == OpCallStatic {
		return al.ParamMayEscape(dex.MethodID(call.Sym), j)
	}
	impls := fx.static.Graph.ImplsOf(dex.MethodID(call.Sym))
	for _, t := range impls {
		if al.ParamMayEscape(t, j) {
			return true
		}
	}
	return false
}

// sweep applies every constraint once, in program order, reporting change.
func (fx *AliasFacts) sweep() bool {
	changed := false
	add := func(v *Value, s objSet) {
		if v.ID >= 0 && v.ID < len(fx.val) && fx.val[v.ID].addSet(s) {
			changed = true
		}
	}
	self := func(v *Value) {
		if fx.val[v.ID].addID(int32(v.ID)) {
			changed = true
		}
	}
	// loadFrom joins the contents of (base's objects, slot) into dst.
	loadFrom := func(dst, base *Value, slot int64) {
		bs := fx.pts(base)
		if bs.extern {
			add(dst, objSet{extern: true})
		}
		for _, o := range bs.ids {
			if fx.kind[o] == objParam || fx.esc[o] || fx.leaked[o] {
				// Pre-existing or callee-visible memory: anything may have
				// been stored there by code we cannot see.
				add(dst, objSet{extern: true})
			}
			add(dst, fx.fldSet(o, slot).set)
		}
	}
	// storeTo records pts(val) into (base's objects, slot); storing into
	// Extern, a parameter's referent, or an escaped object escapes the value.
	storeTo := func(base, val *Value, slot int64) {
		if val == nil || val.Type != TRef {
			return
		}
		vs := fx.pts(val)
		bs := fx.pts(base)
		if bs.extern {
			if fx.escapeSet(vs) {
				changed = true
			}
		}
		for _, o := range bs.ids {
			if fx.fldSet(o, slot).set.addSet(vs) {
				changed = true
			}
			if fx.kind[o] == objParam || fx.esc[o] {
				if fx.escapeSet(vs) {
					changed = true
				}
			}
		}
	}
	for _, b := range fx.f.Blocks {
		for _, p := range b.Phis {
			if p.Type != TRef {
				continue
			}
			for _, a := range p.Args {
				add(p, fx.pts(a))
			}
		}
		for _, v := range b.Insns {
			switch v.Op {
			case OpNewArray, OpNewObject, OpParam:
				if fx.kind[v.ID] != objNone {
					self(v)
				}
			case OpArrLoad:
				if v.Type == TRef {
					loadFrom(v, v.Args[0], elemSlot)
				}
			case OpFieldLoad:
				if v.Type == TRef {
					loadFrom(v, v.Args[0], v.Slot)
				}
			case OpStaticLoad:
				if v.Type == TRef {
					add(v, objSet{extern: true})
				}
			case OpArrStore:
				storeTo(v.Args[0], v.Args[2], elemSlot)
			case OpFieldStore:
				storeTo(v.Args[0], v.Args[1], v.Slot)
			case OpStaticStore:
				if v.Args[0].Type == TRef {
					if fx.escapeSet(fx.pts(v.Args[0])) {
						changed = true
					}
				}
			case OpReturn, OpThrow:
				if len(v.Args) > 0 && v.Args[0].Type == TRef {
					if fx.escapeSet(fx.pts(v.Args[0])) {
						changed = true
					}
				}
			case OpCallStatic, OpCallVirtual:
				for j, a := range v.Args {
					if a.Type != TRef {
						continue
					}
					if fx.argEscapes(v, j) {
						if fx.escapeSet(fx.pts(a)) {
							changed = true
						}
					} else if fx.leakSet(fx.pts(a)) {
						changed = true
					}
				}
				if v.Type == TRef {
					add(v, objSet{extern: true})
				}
			case OpCallNative, OpIntrinsic:
				// Natives receive only scalar parameters (see
				// dex/stdnatives.go), so no reference can cross the
				// boundary; escape defensively if one ever does.
				for _, a := range v.Args {
					if a.Type == TRef {
						if fx.escapeSet(fx.pts(a)) {
							changed = true
						}
					}
				}
				if v.Type == TRef {
					add(v, objSet{extern: true})
				}
			default:
				// Any other ref-producing op denotes an unknown object.
				if v.Type == TRef && fx.kind[v.ID] == objNone {
					add(v, objSet{extern: true})
				}
			}
		}
	}
	// Transitive closure: everything stored in an escaped object escapes,
	// and the contents of leaked objects are callee-visible too.
	for _, o := range fx.objs {
		if !fx.esc[o] && !fx.leaked[o] {
			continue
		}
		for i := range fx.fld[o] {
			if fx.esc[o] {
				if fx.escapeSet(fx.fld[o][i].set) {
					changed = true
				}
			} else if fx.leakSet(fx.fld[o][i].set) {
				changed = true
			}
		}
	}
	return changed
}

// Converged reports whether the fixpoint stabilized; when false every query
// already answers conservatively.
func (fx *AliasFacts) Converged() bool { return fx.converged }

// overlap reports whether two points-to sets can denote a common object.
// Extern and parameter referents pre-exist the invocation, so they overlap
// each other but never a non-escaped local site.
func (fx *AliasFacts) overlap(a, b objSet) bool {
	aPre := a.extern
	bPre := b.extern
	for _, id := range a.ids {
		if fx.kind[id] == objParam {
			aPre = true
			break
		}
	}
	for _, id := range b.ids {
		if fx.kind[id] == objParam {
			bPre = true
			break
		}
	}
	if aPre && bPre {
		return true
	}
	if aPre {
		for _, id := range b.ids {
			if fx.kind[id] == objSite && fx.esc[id] {
				return true
			}
		}
	}
	if bPre {
		for _, id := range a.ids {
			if fx.kind[id] == objSite && fx.esc[id] {
				return true
			}
		}
	}
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			return true
		case a.ids[i] < b.ids[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// accessShape returns the location kind and base/index/slot of a memory
// access, or ok=false for non-access ops.
func accessShape(v *Value) (kind sa.LocKind, base, idx *Value, slot int64, ok bool) {
	switch v.Op {
	case OpArrLoad:
		return sa.LocElem, v.Args[0], v.Args[1], 0, true
	case OpArrStore:
		return sa.LocElem, v.Args[0], v.Args[1], 0, true
	case OpFieldLoad, OpFieldStore:
		return sa.LocField, v.Args[0], nil, v.Slot, true
	case OpStaticLoad, OpStaticStore:
		return sa.LocGlobal, nil, nil, v.Slot, true
	}
	return 0, nil, nil, 0, false
}

// Loc abstracts a memory access to its interprocedural location (the MemLoc
// vocabulary the mod/ref summaries speak). ok=false for non-access ops.
func (fx *AliasFacts) Loc(v *Value) (sa.MemLoc, bool) {
	k, _, _, slot, ok := accessShape(v)
	if !ok {
		return sa.MemLoc{}, false
	}
	if k == sa.LocElem {
		slot = 0
	}
	return sa.MemLoc{Kind: k, Slot: slot}, ok
}

// MayAlias reports whether two memory accesses may touch the same address.
// Conservative on anything it cannot prove apart; callers may pass any two
// access ops (load/load pairs included).
func (fx *AliasFacts) MayAlias(a, b *Value) bool {
	ak, abase, aidx, aslot, aok := accessShape(a)
	bk, bbase, bidx, bslot, bok := accessShape(b)
	if !aok || !bok {
		return true
	}
	if ak != bk {
		// Statics live in their own segment; an object is an array or a
		// scalar-field object, never both.
		return false
	}
	switch ak {
	case sa.LocGlobal:
		return aslot == bslot
	case sa.LocField:
		if aslot != bslot {
			return false
		}
		if abase == bbase {
			return true
		}
		if !fx.converged {
			return true
		}
		return fx.overlap(fx.pts(abase), fx.pts(bbase))
	default: // LocElem
		if abase == bbase {
			// Same array: distinct constant indices never collide.
			if aidx != nil && bidx != nil &&
				aidx.Op == OpConstInt && bidx.Op == OpConstInt && aidx.Imm != bidx.Imm {
				return false
			}
			return true
		}
		if !fx.converged {
			return true
		}
		return fx.overlap(fx.pts(abase), fx.pts(bbase))
	}
}

// callTargetsModRef joins the interprocedural mod/ref summaries of every
// possible callee. Top when summaries are missing.
func (fx *AliasFacts) callTargetsModRef(call *Value) sa.ModRefSummary {
	switch call.Op {
	case OpCallNative, OpIntrinsic:
		// Scalar-only boundary: a native cannot read or write the managed
		// heap. Degrade to Top if a ref argument ever shows up.
		for _, a := range call.Args {
			if a.Type == TRef {
				return sa.TopModRef()
			}
		}
		return sa.ModRefSummary{}
	case OpCallStatic, OpCallVirtual:
	default:
		return sa.TopModRef()
	}
	if fx.static == nil || fx.static.Alias == nil {
		return sa.TopModRef()
	}
	al := fx.static.Alias
	pick := func(m dex.MethodID) sa.ModRefSummary {
		if int(m) < 0 || int(m) >= len(al.ModRef) {
			return sa.TopModRef()
		}
		return al.ModRef[m]
	}
	if call.Op == OpCallStatic {
		return pick(dex.MethodID(call.Sym))
	}
	var sum sa.ModRefSummary
	for _, t := range fx.static.Graph.ImplsOf(dex.MethodID(call.Sym)) {
		s := pick(t)
		sum.Mod.AddSet(s.Mod)
		sum.Ref.AddSet(s.Ref)
	}
	return sum
}

// ModifiedBy returns the caller-visible locations call may write.
func (fx *AliasFacts) ModifiedBy(call *Value) sa.LocSet {
	return fx.callTargetsModRef(call).Mod
}

// ReadBy returns the caller-visible locations call may read.
func (fx *AliasFacts) ReadBy(call *Value) sa.LocSet {
	return fx.callTargetsModRef(call).Ref
}

// Escapes reports whether the allocation site (an OpNewArray/OpNewObject
// value of this function) may be reachable after the function returns.
// Conservative for anything that is not a converged local site.
func (fx *AliasFacts) Escapes(site *Value) bool {
	if !fx.converged || site == nil || site.ID < 0 || site.ID >= len(fx.kind) ||
		fx.kind[site.ID] != objSite {
		return true
	}
	return fx.esc[site.ID]
}

// invisible reports whether every object base may denote is provably
// unreachable by callers and callees-of-callers: a non-escaped local site.
// Accesses through such bases are excluded from the mod/ref summary — the
// precision payoff of the whole analysis.
func (fx *AliasFacts) invisible(base *Value) bool {
	if !fx.converged {
		return false
	}
	s := fx.pts(base)
	if s.extern || len(s.ids) == 0 {
		return false
	}
	for _, id := range s.ids {
		if fx.kind[id] != objSite || fx.esc[id] {
			return false
		}
	}
	return true
}

// Summarize extracts this function's caller-visible mod/ref contract and
// parameter-escape bits, joining callee summaries at call sites (the
// interprocedural driver in internal/sa/pts iterates this over the SCC
// condensation until stable). Non-converged functions summarize to Top with
// every parameter escaping.
func (fx *AliasFacts) Summarize() (sum sa.ModRefSummary, paramEscape uint64) {
	if !fx.converged {
		return sa.TopModRef(), ^uint64(0)
	}
	for _, b := range fx.f.Blocks {
		for _, v := range b.Insns {
			switch v.Op {
			case OpArrStore, OpFieldStore, OpStaticStore:
				if l, ok := fx.Loc(v); ok {
					base := (*Value)(nil)
					if v.Op != OpStaticStore {
						base = v.Args[0]
					}
					if v.Op == OpStaticStore || !fx.invisible(base) {
						sum.Mod.Add(l)
					}
				}
			case OpArrLoad, OpFieldLoad, OpStaticLoad:
				if l, ok := fx.Loc(v); ok {
					base := (*Value)(nil)
					if v.Op != OpStaticLoad {
						base = v.Args[0]
					}
					if v.Op == OpStaticLoad || !fx.invisible(base) {
						sum.Ref.Add(l)
					}
				}
			case OpCallStatic, OpCallVirtual, OpCallNative, OpIntrinsic:
				s := fx.callTargetsModRef(v)
				sum.Mod.AddSet(s.Mod)
				sum.Ref.AddSet(s.Ref)
			}
			// OpArrLen, OpBoundsCheck, and OpClassOf read only object
			// headers, which are immutable after allocation — no location.
		}
	}
	for _, id := range fx.objs {
		if fx.kind[id] != objParam {
			continue
		}
		v := fx.valueByID(id)
		if v == nil {
			continue
		}
		if j := int(v.Slot); fx.esc[id] && j >= 0 && j < 63 {
			paramEscape |= 1 << uint(j)
		}
	}
	return sum, paramEscape
}

// valueByID finds the entry-block value carrying id (parameter lookup only).
func (fx *AliasFacts) valueByID(id int32) *Value {
	for _, b := range fx.f.Blocks {
		for _, v := range b.Insns {
			if int32(v.ID) == id {
				return v
			}
		}
	}
	return nil
}

// SiteVerdicts reports every allocation site of this function in program
// order with its escape verdict (true = may escape).
func (fx *AliasFacts) SiteVerdicts(fn func(site sa.AllocSite, escapes bool)) {
	for _, b := range fx.f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpNewArray && v.Op != OpNewObject {
				continue
			}
			fn(sa.AllocSite{Method: dex.MethodID(v.Slot), PC: int(v.Imm)}, fx.Escapes(v))
		}
	}
}
