package lir

import (
	"fmt"
	"math"
	"math/bits"

	"replayopt/internal/dex"
	"replayopt/internal/sa"
)

// Intraprocedural value-range analysis (the engine behind the rangecheckelim,
// rangebranch, and rangestrength catalog passes, and behind the
// internal/sa/vra interprocedural driver). The abstract domain is
// sa.ValRange — an interval plus a known-nonzero bit — computed per SSA value
// by a bounded round-robin fixpoint with widening at phis, then refined
// flow-sensitively by branch conditions along single-predecessor OpBranch
// edges. Two fact families ride on top of the intervals:
//
//   - symbolic bounds facts `idx + slack < arrlen(arr)` harvested from
//     comparisons against OpArrLen shapes, which is what discharges the
//     canonical `for i = 0; i < len(a); i++ { ... a[i] ... }` bounds checks
//     (induction variables get their nonnegative lower bound from the phi
//     join plus widening, and their upper bound from the loop branch);
//   - interprocedural parameter/return summaries (sa.Result.Ranges, attached
//     by internal/sa/vra over the CHA/RTA call graph), consumed at OpParam
//     and call sites.
//
// Everything here is deterministic: iteration is over the function's slices
// in program order, never over maps, so the facts — and therefore the passes
// and the GA search traces built on them — are byte-identical across runs.

// maxArrLen bounds any array length the runtime can represent; OpArrLen
// values start in [0, maxArrLen].
const maxArrLen = int64(1) << 31

// refineEntry is one branch-derived refinement: inside the block it is
// recorded on (and everything that block dominates, loop-safety permitting),
// v's value lies in r.
type refineEntry struct {
	v *Value
	r sa.ValRange
}

// ltFact is one symbolic bounds fact: v + slack < arrlen(arr).
type ltFact struct {
	idx   *Value
	arr   *Value
	slack int64
}

// RangeFacts is the analysis result for one function.
type RangeFacts struct {
	f      *Function
	static *sa.Result
	// converged is false when the fixpoint hit the round cap; every query
	// then degrades to top (sound: the passes simply do nothing).
	converged bool
	val       []sa.ValRange // by Value.ID
	refine    map[*Block][]refineEntry
	lts       map[*Block][]ltFact
	loopOf    map[*Block]*Loop // innermost loop per block
}

// maxRangeRounds caps the fixpoint sweeps; widening at phis makes real
// functions converge in three or four.
const maxRangeRounds = 8

// AnalyzeRanges computes value ranges for f. static (and static.Ranges) may
// be nil; the analysis then has no interprocedural facts and treats every
// parameter and call result as unconstrained. The function is not modified
// beyond Recompute's analysis caches.
func AnalyzeRanges(f *Function, static *sa.Result) *RangeFacts {
	f.Recompute()
	ra := &RangeFacts{
		f:      f,
		static: static,
		val:    make([]sa.ValRange, f.NumValues()),
		refine: map[*Block][]refineEntry{},
		lts:    map[*Block][]ltFact{},
		loopOf: map[*Block]*Loop{},
	}
	for i := range ra.val {
		ra.val[i] = sa.BottomRange()
	}
	for _, l := range f.Loops() {
		for _, b := range l.Blocks {
			if cur := ra.loopOf[b]; cur == nil || len(l.Blocks) < len(cur.Blocks) {
				ra.loopOf[b] = l
			}
		}
	}

	for round := 0; ; round++ {
		if round == maxRangeRounds {
			// No fixpoint reached: every query answers top.
			return ra
		}
		changed := false
		for _, b := range f.Blocks {
			for _, p := range b.Phis {
				nr := ra.eval(p)
				if round > 0 {
					nr = nr.Widen(ra.val[p.ID])
				}
				nr = ra.val[p.ID].Join(nr) // monotone even mid-widening
				if nr != ra.val[p.ID] {
					ra.val[p.ID] = nr
					changed = true
				}
			}
			for _, v := range b.Insns {
				nr := ra.eval(v)
				nr = ra.val[v.ID].Join(nr)
				if nr != ra.val[v.ID] {
					ra.val[v.ID] = nr
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	ra.converged = true
	ra.buildRefinements()
	return ra
}

// valOf is the flow-insensitive range of v.
func (ra *RangeFacts) valOf(v *Value) sa.ValRange {
	if !ra.converged || v.Type != TInt || v.ID >= len(ra.val) {
		return sa.TopRange()
	}
	r := ra.val[v.ID]
	if r.Empty() {
		// Dead or never-evaluated value: top is the safe answer for
		// consumers that reach it anyway.
		return sa.TopRange()
	}
	return r
}

// At is v's range at block b: the global range refined by every branch fact
// in force on b's dominator chain (loop-safety permitting).
func (ra *RangeFacts) At(b *Block, v *Value) sa.ValRange {
	r := ra.valOf(v)
	if !ra.converged || v.Type != TInt {
		return r
	}
	for cur := b; cur != nil; cur = cur.IDom {
		for _, e := range ra.refine[cur] {
			if e.v == v && ra.safeAt(cur, b, v) {
				r = r.Meet(e.r)
			}
		}
	}
	return r
}

// safeAt reports whether a fact recorded on S may be used at B (which S
// dominates): every loop containing B but not S must not contain the def of
// any value the fact mentions, or a cycle could re-bind the value without
// re-establishing the fact.
func (ra *RangeFacts) safeAt(s, b *Block, vals ...*Value) bool {
	for l := ra.loopOf[b]; l != nil; l = l.Parent {
		if l.Contains(s) {
			return true // ancestors are supersets
		}
		for _, v := range vals {
			if v.Block != nil && l.Contains(v.Block) {
				return false
			}
		}
	}
	return true
}

// eval is the transfer function over the current table.
func (ra *RangeFacts) eval(v *Value) sa.ValRange {
	if v.Type != TInt {
		return sa.TopRange()
	}
	arg := func(i int) sa.ValRange {
		a := v.Args[i]
		if a.Type != TInt {
			return sa.TopRange()
		}
		return ra.val[a.ID]
	}
	switch v.Op {
	case OpConstInt:
		return sa.ConstRange(v.Imm)
	case OpParam:
		return ra.paramRange(int(v.Slot))
	case OpPhi:
		r := sa.BottomRange()
		for i := range v.Args {
			r = r.Join(arg(i))
		}
		return r
	case OpAdd:
		return rAdd(arg(0), arg(1))
	case OpSub:
		return rSub(arg(0), arg(1))
	case OpMul:
		return rMul(arg(0), arg(1))
	case OpNeg:
		return rSub(sa.ConstRange(0), arg(0))
	case OpDiv:
		return rDiv(arg(0), arg(1))
	case OpRem:
		return rRem(arg(0), arg(1))
	case OpAnd:
		return rAnd(arg(0), arg(1))
	case OpOr, OpXor:
		return rOrXor(arg(0), arg(1))
	case OpShl:
		return rShl(arg(0), arg(1))
	case OpShr:
		return rShr(arg(0), arg(1))
	case OpArrLen:
		if n, ok := constArrayLen(v.Args[0]); ok {
			return sa.ConstRange(n)
		}
		return sa.ValRange{Lo: 0, Hi: maxArrLen}
	case OpFCmp:
		return sa.ValRange{Lo: -1, Hi: 1}
	case OpCallStatic:
		return ra.summaryRet(dex.MethodID(v.Sym))
	case OpCallVirtual:
		if ra.static == nil || ra.static.Graph == nil {
			return sa.TopRange()
		}
		impls := ra.static.Graph.ImplsOf(dex.MethodID(v.Sym))
		if len(impls) == 0 {
			return sa.TopRange()
		}
		r := sa.BottomRange()
		for _, id := range impls {
			r = r.Join(ra.summaryRet(id))
		}
		return r
	}
	return sa.TopRange()
}

func (ra *RangeFacts) paramRange(slot int) sa.ValRange {
	if ra.static == nil || ra.static.Ranges == nil || int(ra.f.Method) >= len(ra.static.Ranges) {
		return sa.TopRange()
	}
	return ra.static.Ranges[ra.f.Method].ParamRange(slot)
}

func (ra *RangeFacts) summaryRet(id dex.MethodID) sa.ValRange {
	if ra.static == nil || ra.static.Ranges == nil || int(id) >= len(ra.static.Ranges) || id < 0 {
		return sa.TopRange()
	}
	return ra.static.Ranges[id].Ret
}

// constArrayLen reports the exact length of arr when it is a fresh
// allocation with a constant size.
func constArrayLen(arr *Value) (int64, bool) {
	if arr.Op != OpNewArray {
		return 0, false
	}
	n, ok := isConstInt(arr.Args[0])
	if !ok || n < 0 {
		return 0, false
	}
	return n, true
}

// buildRefinements harvests branch-condition facts: a conditional terminator
// whose successor has that edge as its only entry constrains the compared
// values inside the successor (and its dominees).
func (ra *RangeFacts) buildRefinements() {
	for _, p := range ra.f.Blocks {
		t := p.Term()
		if t == nil || t.Op != OpBranch || len(p.Succs) != 2 || len(t.Args) != 2 {
			continue
		}
		a, b := t.Args[0], t.Args[1]
		if a.Type != TInt || b.Type != TInt {
			continue
		}
		for which, s := range p.Succs {
			if s == p || len(s.Preds) != 1 {
				continue
			}
			cond := t.Cond
			if which == 1 {
				cond = cond.Invert()
			}
			if na, ok := condRefine(cond, ra.valOf(b)); ok {
				ra.refine[s] = append(ra.refine[s], refineEntry{v: a, r: na})
			}
			if nb, ok := condRefine(swapCond(cond), ra.valOf(a)); ok {
				ra.refine[s] = append(ra.refine[s], refineEntry{v: b, r: nb})
			}
			ra.harvestLt(s, cond, a, b)
		}
	}
}

// swapCond rewrites `a c b` as `b c' a`.
func swapCond(c Cond) Cond {
	switch c {
	case CondLt:
		return CondGt
	case CondLe:
		return CondGe
	case CondGt:
		return CondLt
	case CondGe:
		return CondLe
	}
	return c // Eq, Ne are symmetric
}

// condRefine returns the interval the left operand must satisfy given
// `a cond b` with b ∈ rb.
func condRefine(cond Cond, rb sa.ValRange) (sa.ValRange, bool) {
	if rb.Empty() {
		return rb, false
	}
	switch cond {
	case CondLt:
		return sa.ValRange{Lo: math.MinInt64, Hi: addSat(rb.Hi, -1)}, true
	case CondLe:
		return sa.ValRange{Lo: math.MinInt64, Hi: rb.Hi}, true
	case CondGt:
		return sa.ValRange{Lo: addSat(rb.Lo, 1), Hi: math.MaxInt64}, true
	case CondGe:
		return sa.ValRange{Lo: rb.Lo, Hi: math.MaxInt64}, true
	case CondEq:
		return rb, true
	case CondNe:
		if rb.Lo == 0 && rb.Hi == 0 {
			return sa.ValRange{Lo: math.MinInt64, Hi: math.MaxInt64, NonZero: true}, true
		}
	}
	return sa.ValRange{}, false
}

// lenShape decomposes v as `arrlen(arr) - slack` for a constant slack
// (OpArrLen itself has slack 0).
func lenShape(v *Value) (arr *Value, slack int64, ok bool) {
	switch v.Op {
	case OpArrLen:
		return v.Args[0], 0, true
	case OpSub:
		if v.Args[0].Op == OpArrLen {
			if c, isC := isConstInt(v.Args[1]); isC {
				return v.Args[0].Args[0], c, true
			}
		}
	case OpAdd:
		if v.Args[0].Op == OpArrLen {
			if c, isC := isConstInt(v.Args[1]); isC {
				return v.Args[0].Args[0], -c, true
			}
		}
		if v.Args[1].Op == OpArrLen {
			if c, isC := isConstInt(v.Args[0]); isC {
				return v.Args[1].Args[0], -c, true
			}
		}
	}
	return nil, 0, false
}

// harvestLt records symbolic `idx + slack < arrlen(arr)` facts implied by
// `a cond b` on edge into s.
func (ra *RangeFacts) harvestLt(s *Block, cond Cond, a, b *Value) {
	switch cond {
	case CondLt:
		if arr, slack, ok := lenShape(b); ok {
			ra.lts[s] = append(ra.lts[s], ltFact{idx: a, arr: arr, slack: slack})
		}
	case CondLe:
		if arr, slack, ok := lenShape(b); ok {
			ra.lts[s] = append(ra.lts[s], ltFact{idx: a, arr: arr, slack: addSat(slack, -1)})
		}
	case CondGt:
		if arr, slack, ok := lenShape(a); ok {
			ra.lts[s] = append(ra.lts[s], ltFact{idx: b, arr: arr, slack: slack})
		}
	case CondGe:
		if arr, slack, ok := lenShape(a); ok {
			ra.lts[s] = append(ra.lts[s], ltFact{idx: b, arr: arr, slack: addSat(slack, -1)})
		}
	}
}

// offsetFrom reports k such that idx always equals base + k.
func offsetFrom(idx, base *Value) (int64, bool) {
	if idx == base {
		return 0, true
	}
	switch idx.Op {
	case OpAdd:
		if idx.Args[0] == base {
			if c, ok := isConstInt(idx.Args[1]); ok {
				return c, true
			}
		}
		if idx.Args[1] == base {
			if c, ok := isConstInt(idx.Args[0]); ok {
				return c, true
			}
		}
	case OpSub:
		if idx.Args[0] == base {
			if c, ok := isConstInt(idx.Args[1]); ok && c != math.MinInt64 {
				return -c, true
			}
		}
	}
	return 0, false
}

// sameArray reports whether two array-typed values are provably the same
// object at block at: identical SSA values, or reloads of one static global
// inside a loop that never stores it (mirrors bce's sameArrayIn).
func (ra *RangeFacts) sameArray(fa, arr *Value, at *Block) bool {
	if fa == arr {
		return true
	}
	if fa.Op != OpStaticLoad || arr.Op != OpStaticLoad || fa.Slot != arr.Slot {
		return false
	}
	l := ra.loopOf[at]
	if l == nil || fa.Block == nil || arr.Block == nil || !l.Contains(fa.Block) || !l.Contains(arr.Block) {
		return false
	}
	return stableGlobalSlot(l, fa.Slot)
}

// ProvenInBounds reports whether the OpBoundsCheck value can never trap:
// index nonnegative and strictly below the array length, either against a
// constant allocation size or through a dominating symbolic fact. The
// returned string is the proving fact, phrased for rtrace notes and
// salint range witnesses.
func (ra *RangeFacts) ProvenInBounds(check *Value) (string, bool) {
	if !ra.converged || check.Op != OpBoundsCheck || check.Block == nil {
		return "", false
	}
	b := check.Block
	arr, idx := check.Args[0], check.Args[1]
	ri := ra.At(b, idx)
	if !ri.NonNeg() {
		return "", false
	}
	if n, ok := constArrayLen(arr); ok && ri.Hi < n {
		return fmt.Sprintf("idx ∈ %s, alloc len %d", ri, n), true
	}
	for cur := b; cur != nil; cur = cur.IDom {
		for _, ft := range ra.lts[cur] {
			k, ok := offsetFrom(idx, ft.idx)
			if !ok || k > ft.slack {
				continue
			}
			if !ra.safeAt(cur, b, ft.idx, ft.arr) {
				continue
			}
			if !ra.sameArray(ft.arr, arr, b) {
				continue
			}
			return fmt.Sprintf("idx ∈ %s, guarded v%d+%d < len(v%d)", ri, ft.idx.ID, ft.slack, ft.arr.ID), true
		}
	}
	return "", false
}

// NonZeroAt reports whether v is provably nonzero at b.
func (ra *RangeFacts) NonZeroAt(b *Block, v *Value) (string, bool) {
	r := ra.At(b, v).Norm()
	if r.NonZero {
		return fmt.Sprintf("divisor ∈ %s", r), true
	}
	return "", false
}

// FoldableBranch reports whether b's conditional terminator has a single
// feasible outcome; keep is the index of the surviving successor.
func (ra *RangeFacts) FoldableBranch(b *Block) (keep int, fact string, ok bool) {
	if !ra.converged {
		return 0, "", false
	}
	t := b.Term()
	if t == nil || t.Op != OpBranch || len(b.Succs) != 2 || len(t.Args) != 2 {
		return 0, "", false
	}
	a, c := t.Args[0], t.Args[1]
	if a.Type != TInt || c.Type != TInt {
		return 0, "", false
	}
	rA, rC := ra.At(b, a), ra.At(b, c)
	if rA.Empty() || rC.Empty() {
		return 0, "", false
	}
	know, outcome := condDecide(t.Cond, rA, rC)
	if !know {
		return 0, "", false
	}
	keep = 0
	if !outcome {
		keep = 1
	}
	return keep, fmt.Sprintf("%s over %s vs %s is always %v", t.Cond, rA, rC, outcome), true
}

// condDecide evaluates cond over two intervals when only one outcome is
// feasible.
func condDecide(cond Cond, a, b sa.ValRange) (know, outcome bool) {
	disjoint := a.Hi < b.Lo || a.Lo > b.Hi ||
		(a.NonZero && b.Lo == 0 && b.Hi == 0) || (b.NonZero && a.Lo == 0 && a.Hi == 0)
	switch cond {
	case CondLt:
		if a.Hi < b.Lo {
			return true, true
		}
		if a.Lo >= b.Hi {
			return true, false
		}
	case CondLe:
		if a.Hi <= b.Lo {
			return true, true
		}
		if a.Lo > b.Hi {
			return true, false
		}
	case CondGt:
		if a.Lo > b.Hi {
			return true, true
		}
		if a.Hi <= b.Lo {
			return true, false
		}
	case CondGe:
		if a.Lo >= b.Hi {
			return true, true
		}
		if a.Hi < b.Lo {
			return true, false
		}
	case CondEq:
		if a.Lo == a.Hi && b.Lo == b.Hi && a.Lo == b.Lo {
			return true, true
		}
		if disjoint {
			return true, false
		}
	case CondNe:
		if disjoint {
			return true, true
		}
		if a.Lo == a.Hi && b.Lo == b.Hi && a.Lo == b.Lo {
			return true, false
		}
	}
	return false, false
}

// ReturnRange joins the ranges of every value the function can return
// (top for non-integer returns, also top when the function has no normal
// return so callers stay conservative).
func (ra *RangeFacts) ReturnRange() sa.ValRange {
	if !ra.converged {
		return sa.TopRange()
	}
	r := sa.BottomRange()
	for _, b := range ra.f.Blocks {
		t := b.Term()
		if t == nil || t.Op != OpReturn || len(t.Args) == 0 {
			continue
		}
		a := t.Args[0]
		if a.Type != TInt {
			return sa.TopRange()
		}
		r = r.Join(ra.At(b, a))
	}
	if r.Empty() {
		return sa.TopRange()
	}
	return r
}

// CallSites invokes fn for every managed call in program order with the
// flow-sensitive ranges of its integer arguments (top for non-integer
// slots). Used by the interprocedural driver to seed parameter summaries.
func (ra *RangeFacts) CallSites(fn func(call *Value, args []sa.ValRange)) {
	for _, b := range ra.f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpCallStatic && v.Op != OpCallVirtual {
				continue
			}
			args := make([]sa.ValRange, len(v.Args))
			for i, a := range v.Args {
				if a.Type == TInt && ra.converged {
					args[i] = ra.At(b, a)
				} else {
					args[i] = sa.TopRange()
				}
			}
			fn(v, args)
		}
	}
}

// Saturating interval arithmetic. Any bound that would overflow pins to the
// corresponding infinity, keeping every transfer function an
// over-approximation.

func addSat(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < a {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

func rAdd(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	return sa.ValRange{Lo: addSat(a.Lo, b.Lo), Hi: addSat(a.Hi, b.Hi)}.Norm()
}

func negSat(x int64) int64 {
	if x == math.MinInt64 {
		return math.MaxInt64
	}
	return -x
}

func rSub(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	return rAdd(a, sa.ValRange{Lo: negSat(b.Hi), Hi: negSat(b.Lo)})
}

// mulOK multiplies with an overflow check.
func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if a == math.MinInt64 || b == math.MinInt64 || p/b != a {
		return 0, false
	}
	return p, true
}

func rMul(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulOK(x, y)
			if !ok {
				return sa.TopRange()
			}
			lo, hi = min(lo, p), max(hi, p)
		}
	}
	return sa.ValRange{Lo: lo, Hi: hi, NonZero: a.NonZero && b.NonZero}.Norm()
}

// magnitude returns m ≥ |x| for every x in r, false when unbounded.
func magnitude(r sa.ValRange) (int64, bool) {
	if r.Lo == math.MinInt64 || r.Hi == math.MaxInt64 {
		return 0, false
	}
	m := r.Hi
	if -r.Lo > m {
		m = -r.Lo
	}
	return m, true
}

func rDiv(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	if a.Lo >= 0 && b.Lo > 0 {
		// b.Hi ≥ b.Lo > 0: monotone corner division, no trap possible.
		return sa.ValRange{Lo: a.Lo / b.Hi, Hi: a.Hi / b.Lo}.Norm()
	}
	// Truncated division never grows magnitude except MinInt64 / -1, which
	// wraps back to MinInt64 — still within [-m-1, m] only when m is
	// unsaturated; play safe and require a strict bound.
	if m, ok := magnitude(a); ok {
		return sa.ValRange{Lo: -m, Hi: m}
	}
	return sa.TopRange()
}

func rRem(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	// |a % b| < |b| and the result takes a's sign (truncated semantics).
	if mb, ok := magnitude(b); ok && mb > 0 {
		r := sa.ValRange{Lo: -(mb - 1), Hi: mb - 1}
		if a.Lo >= 0 {
			r.Lo = 0
		}
		if a.Hi <= 0 {
			r.Hi = 0
		}
		return r
	}
	// |a % b| ≤ |a| whenever it executes.
	if ma, ok := magnitude(a); ok {
		r := sa.ValRange{Lo: -ma, Hi: ma}
		if a.Lo >= 0 {
			r.Lo = 0
		}
		if a.Hi <= 0 {
			r.Hi = 0
		}
		return r
	}
	return sa.TopRange()
}

func rAnd(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	// x & mask with mask ≥ 0 lands in [0, mask] regardless of x's sign.
	hi := int64(math.MaxInt64)
	if a.NonNeg() {
		hi = min(hi, a.Hi)
	}
	if b.NonNeg() {
		hi = min(hi, b.Hi)
	}
	if a.NonNeg() || b.NonNeg() {
		return sa.ValRange{Lo: 0, Hi: hi}
	}
	return sa.TopRange()
}

func rOrXor(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	if a.NonNeg() && b.NonNeg() && a.Hi < math.MaxInt64 && b.Hi < math.MaxInt64 {
		// Both below 2^k ⇒ or/xor below 2^k.
		n := bits.Len64(uint64(max(a.Hi, b.Hi)))
		if n < 63 {
			return sa.ValRange{Lo: 0, Hi: int64(1)<<n - 1}
		}
		return sa.ValRange{Lo: 0, Hi: math.MaxInt64}
	}
	return sa.TopRange()
}

func rShl(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	if b.Lo == b.Hi && b.Lo >= 0 && b.Lo <= 62 {
		s := uint(b.Lo)
		lo, hi := a.Lo<<s, a.Hi<<s
		if lo>>s == a.Lo && hi>>s == a.Hi && lo <= hi {
			return sa.ValRange{Lo: lo, Hi: hi}.Norm()
		}
	}
	return sa.TopRange()
}

func rShr(a, b sa.ValRange) sa.ValRange {
	if a.Empty() || b.Empty() {
		return sa.BottomRange()
	}
	if b.Lo == b.Hi && b.Lo >= 0 && b.Lo <= 63 {
		s := uint(b.Lo)
		return sa.ValRange{Lo: a.Lo >> s, Hi: a.Hi >> s}.Norm()
	}
	if a.NonNeg() {
		return sa.ValRange{Lo: 0, Hi: a.Hi}
	}
	return sa.TopRange()
}
