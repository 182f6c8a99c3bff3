package tv

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"replayopt/internal/lir"
	"replayopt/internal/opsem"
)

// Validate proves (or fails to prove) that after is behaviorally equivalent
// to before, where after = pass(before). The proof strategy:
//
//   - Pair the two CFGs by lockstep traversal from the entries (a
//     bisimulation over successor positions). Passes that restructure the
//     CFG break the pairing and land on Unverified — honest, since following
//     them needs a per-pass cutpoint mapping this validator does not have.
//   - Hash every value into a canonical symbolic expression, interned in a
//     node table both sides share: constants fold through the same
//     lir.FoldInt/FoldFloat the passes use, associative and commutative
//     integer chains flatten into sorted leaf multisets, identities (x+0,
//     x*1, x^0, ...) normalize away, and loads take memory-state tokens
//     positioned by the observable prefix of their block (with exact
//     same-location store-to-load forwarding, invalidated by any other store
//     or call).
//   - Per block pair, the observable sequences (stores, calls, allocations)
//     must match op-for-op and argument-hash-for-argument-hash, terminator
//     arguments must match, non-trivial phis must match positionally with
//     per-predecessor argument equality, and the function-wide sets of
//     trap-risky operations (non-constant division, bounds checks) must be
//     preserved exactly.
//
// Any check the validator cannot discharge yields Unverified. Rejected is
// reserved for proof of difference: two paired observable (or returned)
// values that reduce to distinct integer constants, or differ by a nonzero
// additive constant, in blocks that dominate every function exit — code that
// runs on every terminating execution. Floats are never disproved (NaN and
// rounding make "different bits" an unsound argument).
//
// cfg is the pass's declared CFG trait (lir.PassInfo.CFG): an Unverified
// reason caused by a CFG change the pass did not declare is labeled an
// anomaly.
func Validate(before, after *lir.Function, cfg bool) (Verdict, string) {
	var e equiv
	return e.validate(before, after, cfg)
}

// valState is one value's hashing state, indexed by Value.ID.
type valState struct {
	v *lir.Value
	// hash memoizes the canonical expression.
	hash nodeID
	// flat is the kFlat record of a flattened chain: the disprover reads
	// it, and a parent chain of the same op merges it instead of walking
	// the operands again.
	flat nodeID
	// phitok names a non-trivial phi positionally within its pair.
	phitok nodeID
	// memtok positions an unforwarded load in its block's observable prefix.
	memtok nodeID
	// forward is the value a same-block same-location store provably wrote.
	forward *lir.Value
	// obs is 1 + the value's observable index in its block (0: not found).
	obs int32
	// live marks values whose hashes can enter a comparison; dead phis are
	// excluded from positional pairing (dce deletes them on one side only).
	live bool
	// busy guards against cycles through non-phi values during hashing.
	busy bool
}

// blockState is one block's pairing, indexed by Block.ID.
type blockState struct {
	b    *lir.Block
	mate *lir.Block // the paired block on the other side
	pair int32      // 1 + the index of the block pair; 0 = unpaired
}

// side is one function plus its hashing state. Values and blocks are indexed
// by ID: index claims each ID for exactly one pointer.
type side struct {
	fn     *lir.Function
	t      *table
	vals   []valState
	blocks []blockState
	stack  []*lir.Value
	bstack []*lir.Block
}

// index sizes the tables from the largest IDs seen and claims the blocks of
// the function and every block reachable through successors, their phis and
// instructions, and every value reachable through arguments. It reports
// false for IR that names two values or two blocks by one ID (or holds a nil
// one), which dense tables cannot tell apart; lir.VerifyIR (Options.Strict)
// rejects such IR before validation runs.
func (s *side) index(fn *lir.Function, t *table) bool {
	s.fn, s.t = fn, t
	maxV, maxB := -1, -1
	for _, b := range fn.Blocks {
		maxB = max(maxB, b.ID)
		for _, v := range b.Phis {
			maxV = max(maxV, v.ID)
		}
		for _, v := range b.Insns {
			maxV = max(maxV, v.ID)
		}
	}
	s.vals = resize(s.vals, maxV+1)
	s.blocks = resize(s.blocks, maxB+1)
	s.stack, s.bstack = s.stack[:0], s.bstack[:0]
	claimB := func(b *lir.Block) bool {
		if b == nil || b.ID < 0 {
			return false
		}
		for b.ID >= len(s.blocks) {
			s.blocks = append(s.blocks, blockState{})
		}
		if s.blocks[b.ID].b == nil {
			s.blocks[b.ID].b = b
			s.bstack = append(s.bstack, b)
		}
		return s.blocks[b.ID].b == b
	}
	claimV := func(v *lir.Value) bool {
		if v == nil || v.ID < 0 {
			return false
		}
		for v.ID >= len(s.vals) {
			s.vals = append(s.vals, valState{})
		}
		if s.vals[v.ID].v == nil {
			s.vals[v.ID].v = v
			s.stack = append(s.stack, v)
		}
		return s.vals[v.ID].v == v
	}
	for _, b := range fn.Blocks {
		if !claimB(b) {
			return false
		}
	}
	for len(s.bstack) > 0 || len(s.stack) > 0 {
		if n := len(s.bstack); n > 0 {
			b := s.bstack[n-1]
			s.bstack = s.bstack[:n-1]
			for _, p := range b.Phis {
				if !claimV(p) {
					return false
				}
			}
			k := int32(0)
			for _, v := range b.Insns {
				if !claimV(v) {
					return false
				}
				if st := s.val(v); v.Block == b && st.obs == 0 {
					st.obs = k + 1
				}
				if observableOp(v.Op) {
					k++
				}
			}
			for _, succ := range b.Succs {
				if !claimB(succ) {
					return false
				}
			}
			continue
		}
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, a := range v.Args {
			if !claimV(a) {
				return false
			}
		}
	}
	return true
}

func (s *side) val(v *lir.Value) *valState { return &s.vals[v.ID] }

// block returns b's state, or nil for a block outside the function.
func (s *side) block(b *lir.Block) *blockState {
	if b == nil || b.ID < 0 || b.ID >= len(s.blocks) || s.blocks[b.ID].b != b {
		return nil
	}
	return &s.blocks[b.ID]
}

// pairOf returns b's pair index, or false when b is unpaired.
func (s *side) pairOf(b *lir.Block) (int, bool) {
	if st := s.block(b); st != nil && st.pair > 0 {
		return int(st.pair - 1), true
	}
	return 0, false
}

// tokenPair is the pair index that positions b's tokens: unpaired blocks
// take a unique negative index that never matches a paired token.
func (s *side) tokenPair(b *lir.Block) int64 {
	if pid, ok := s.pairOf(b); ok {
		return int64(pid)
	}
	return -int64(b.ID + 1)
}

type blockPair struct {
	b, a *lir.Block
}

// equiv is one validation: the shared node table, both sides, and scratch.
// A Checker keeps one and reuses its storage across passes.
type equiv struct {
	t             table
	before, after side
	cfgDeclared   bool
	pairs         []blockPair

	listB, listA []*lir.Value
	argsB, argsA []phiArg
	trapB, trapA []trapKey

	// selfVerifies' scratch.
	reached []bool
	reach   []*lir.Block
	bounds  []uint64
}

// unverified wraps a reason, flagging the anomaly of a pass that reshaped
// the CFG without declaring the CFG trait.
func (e *equiv) unverified(cfgChange bool, format string, args ...any) (Verdict, string) {
	reason := fmt.Sprintf(format, args...)
	if cfgChange && !e.cfgDeclared {
		reason = "anomaly: undeclared CFG change: " + reason
	}
	return Unverified, reason
}

func (e *equiv) validate(before, after *lir.Function, cfg bool) (Verdict, string) {
	e.cfgDeclared = cfg
	e.pairs = e.pairs[:0]
	if len(before.Blocks) == 0 || len(after.Blocks) == 0 {
		return Unverified, "empty function"
	}
	if !e.before.index(before, &e.t) || !e.after.index(after, &e.t) {
		return Unverified, "malformed IR: two values or two blocks share one ID"
	}
	e.t.reset(len(e.before.vals) + len(e.after.vals))
	if v, reason, ok := e.pair(); !ok {
		return v, reason
	}
	e.before.indexMemory()
	e.after.indexMemory()
	e.before.computeLive()
	e.after.computeLive()
	// Phi tokens: start by assuming every phi is non-trivial, then collapse
	// phis whose (non-self) arguments all hash alike, re-assign positional
	// tokens, and iterate to a fixpoint. This mirrors prunePhis, so a side
	// that kept a trivial phi and a side that removed it still line up.
	for round := 0; ; round++ {
		e.before.assignPhiTokens()
		e.after.assignPhiTokens()
		changedB := e.before.collapsePhis()
		changedA := e.after.collapsePhis()
		if (!changedB && !changedA) || round > 8 {
			break
		}
		e.before.resetHashes()
		e.after.resetHashes()
	}
	e.before.assignPhiTokens()
	e.after.assignPhiTokens()
	e.before.resetHashes()
	e.after.resetHashes()

	// Structural checks first; value mismatches are collected for the
	// disprover only if everything structural lines up.
	type mismatch struct {
		pair   int
		what   string
		vb, va *lir.Value // the differing argument values
	}
	var diffs []mismatch
	for pid, p := range e.pairs {
		// Non-trivial phis must correspond positionally with
		// per-predecessor argument equality.
		e.listB = e.before.appendNontrivialPhis(e.listB[:0], p.b)
		e.listA = e.after.appendNontrivialPhis(e.listA[:0], p.a)
		if len(e.listB) != len(e.listA) {
			return e.unverified(false, "pair %d: %d vs %d non-trivial phis", pid, len(e.listB), len(e.listA))
		}
		for k := range e.listB {
			if v, reason, ok := e.checkPhiArgs(pid, p, e.listB[k], e.listA[k]); !ok {
				return v, reason
			}
		}
		// Observable sequences.
		ob, oa := appendObservables(e.listB[:0], p.b), appendObservables(e.listA[:0], p.a)
		e.listB, e.listA = ob, oa
		if len(ob) != len(oa) {
			return e.unverified(false, "pair %d: %d vs %d observable ops", pid, len(ob), len(oa))
		}
		for k := range ob {
			vb, va := ob[k], oa[k]
			if vb.Op != va.Op || vb.Slot != va.Slot || vb.Sym != va.Sym {
				return e.unverified(false, "pair %d observable %d: %s/slot%d vs %s/slot%d",
					pid, k, vb.Op, vb.Slot, va.Op, va.Slot)
			}
			if len(vb.Args) != len(va.Args) {
				return e.unverified(false, "pair %d observable %d: arg count %d vs %d", pid, k, len(vb.Args), len(va.Args))
			}
			for i := range vb.Args {
				if e.before.hash(vb.Args[i]) != e.after.hash(va.Args[i]) {
					diffs = append(diffs, mismatch{pid, fmt.Sprintf("%s arg %d", vb.Op, i), vb.Args[i], va.Args[i]})
				}
			}
		}
		// Terminator arguments. Branch condition divergence only redirects
		// control flow — unprovable either way — so it is never disproved.
		tb, ta := p.b.Term(), p.a.Term()
		if len(tb.Args) != len(ta.Args) {
			return e.unverified(false, "pair %d: terminator arg count %d vs %d", pid, len(tb.Args), len(ta.Args))
		}
		for i := range tb.Args {
			if e.before.hash(tb.Args[i]) != e.after.hash(ta.Args[i]) {
				if tb.Op == lir.OpBranch {
					return e.unverified(false, "pair %d: branch argument %d diverges", pid, i)
				}
				diffs = append(diffs, mismatch{pid, fmt.Sprintf("%s arg %d", tb.Op, i), tb.Args[i], ta.Args[i]})
			}
		}
	}
	// Trap preservation: the multiset of potentially-trapping operations
	// (as canonical hashes, function-wide sets so code motion and GVN-style
	// dedup pass) must be identical — removing a check that might have
	// fired, or adding a new trap, both change behavior unprovably.
	e.trapB, e.trapA = e.before.appendTraps(e.trapB[:0]), e.after.appendTraps(e.trapA[:0])
	if !slices.Equal(e.trapB, e.trapA) {
		return e.unverified(false, "trap-risky op set changed (%d vs %d distinct)", len(e.trapB), len(e.trapA))
	}

	if len(diffs) == 0 {
		return Verified, ""
	}
	// Disprover: a paired value difference is a proven miscompile only when
	// the values are provably unequal and the block pair dominates every
	// exit on both sides (the difference manifests on every terminating
	// run).
	domB := lir.DominanceOf(e.before.fn)
	domA := lir.DominanceOf(e.after.fn)
	for _, d := range diffs {
		p := e.pairs[d.pair]
		if !dominatesAllExits(e.before.fn, domB, p.b) || !dominatesAllExits(e.after.fn, domA, p.a) {
			continue
		}
		if why, ok := e.disprove(d.vb, d.va); ok {
			return Rejected, fmt.Sprintf("pair %d %s: %s", d.pair, d.what, why)
		}
	}
	return Unverified, fmt.Sprintf("%d paired value(s) could not be proven equal (first: pair %d %s)",
		len(diffs), diffs[0].pair, diffs[0].what)
}

// selfVerifies proves, for f that passed lir.VerifyIR, that validating f
// against IR equal to it (lir.SameIR) is (Verified, ""): both sides then hash
// alike, node for node, so every comparison holds, unless a node only one
// side can make enters one. Those are the opaque nodes of a cycle, of a phi
// without a token and of an observable outside every block pair, and the
// fresh node of a chain whose multiplicities overflow. Two conditions rule
// them out, and selfVerifies answers false when either fails:
//
//   - Every block is reachable from the entry. Then every block is paired,
//     and VerifyIR's dominance discipline covers every block, so no cycle
//     runs through non-phi values. Only live values are hashed, and every
//     live phi has a token or a collapsed hash.
//   - No chain can overflow: chainBound bounds the sum of the multiplicities
//     of every chain hashFlatAs may build.
func (e *equiv) selfVerifies(f *lir.Function) bool {
	maxB, maxV := -1, -1
	for _, b := range f.Blocks {
		maxB = max(maxB, b.ID)
		for _, vs := range [2][]*lir.Value{b.Phis, b.Insns} {
			for _, v := range vs {
				if v.ID < 0 {
					return false
				}
				maxV = max(maxV, v.ID)
			}
		}
	}
	e.reached = resize(e.reached, maxB+1)
	e.reach = append(e.reach[:0], f.Blocks[0])
	e.reached[f.Blocks[0].ID] = true
	for n := 0; n < len(e.reach); n++ {
		for _, s := range e.reach[n].Succs {
			if !e.reached[s.ID] {
				e.reached[s.ID] = true
				e.reach = append(e.reach, s)
			}
		}
	}
	if len(e.reach) != len(f.Blocks) {
		return false
	}
	e.bounds = resize(e.bounds, maxV+1)
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if chainBound(v, e.bounds) > math.MaxInt64 {
				return false
			}
		}
	}
	return true
}

// chainBound bounds the sum of the multiplicities of the chain hashFlatAs
// builds for v, memoized in bounds by value ID (0: not yet computed): the
// sum over the operands it flattens of each one's bound, counting every
// flattenable operand as merged and every other as one leaf. The bound
// saturates at 1<<63, past math.MaxInt64.
func chainBound(v *lir.Value, bounds []uint64) uint64 {
	const limit = 1 << 63
	args := v.Args
	switch {
	case v.Op == lir.OpShl:
		args = args[:1]
	case !flattenable(v.Op):
		return 1
	}
	if n := bounds[v.ID]; n != 0 {
		return n
	}
	var n uint64
	for _, a := range args {
		if m := chainBound(a, bounds); m >= limit-n {
			n = limit
		} else {
			n += m
		}
	}
	bounds[v.ID] = n
	return n
}

// pair builds the lockstep CFG bisimulation.
func (e *equiv) pair() (Verdict, string, bool) {
	push := func(b, a *lir.Block) (Verdict, string, bool) {
		sb, sa := e.before.block(b), e.after.block(a)
		if sb.mate != nil {
			if sb.mate != a {
				v, r := e.unverified(true, "block b%d pairs with both b%d and b%d", b.ID, sb.mate.ID, a.ID)
				return v, r, false
			}
			return 0, "", true
		}
		if sa.mate != nil && sa.mate != b {
			v, r := e.unverified(true, "block b%d pairs with both b%d and b%d", a.ID, sa.mate.ID, b.ID)
			return v, r, false
		}
		sb.mate, sa.mate = a, b
		sb.pair = int32(len(e.pairs) + 1)
		sa.pair = sb.pair
		e.pairs = append(e.pairs, blockPair{b, a})
		return 0, "", true
	}
	if v, r, ok := push(e.before.fn.Blocks[0], e.after.fn.Blocks[0]); !ok {
		return v, r, false
	}
	// e.pairs doubles as the breadth-first queue.
	for next := 0; next < len(e.pairs); next++ {
		p := e.pairs[next]
		tb, ta := p.b.Term(), p.a.Term()
		if tb == nil || ta == nil {
			v, r := e.unverified(false, "block b%d/b%d missing terminator", p.b.ID, p.a.ID)
			return v, r, false
		}
		if tb.Op != ta.Op {
			v, r := e.unverified(true, "terminator %s vs %s at b%d/b%d", tb.Op, ta.Op, p.b.ID, p.a.ID)
			return v, r, false
		}
		if tb.Op == lir.OpBranch && tb.Cond != ta.Cond {
			v, r := e.unverified(false, "branch condition %s vs %s at b%d/b%d", tb.Cond, ta.Cond, p.b.ID, p.a.ID)
			return v, r, false
		}
		if len(p.b.Succs) != len(p.a.Succs) {
			v, r := e.unverified(true, "successor count %d vs %d at b%d/b%d", len(p.b.Succs), len(p.a.Succs), p.b.ID, p.a.ID)
			return v, r, false
		}
		for i := range p.b.Succs {
			if v, r, ok := push(p.b.Succs[i], p.a.Succs[i]); !ok {
				return v, r, false
			}
		}
	}
	return 0, "", true
}

// phiArg is one phi argument keyed by its predecessor's pair.
type phiArg struct {
	ppid int
	hash nodeID
}

// phiArgs lists a phi's arguments from paired predecessors, grouped by
// predecessor pair in ascending order and in occurrence order within one.
func (s *side) phiArgs(out []phiArg, b *lir.Block, phi *lir.Value) []phiArg {
	for i, pred := range b.Preds {
		ppid, ok := s.pairOf(pred)
		if !ok {
			continue // unreachable or unpaired pred: ignore
		}
		if i < len(phi.Args) {
			out = append(out, phiArg{ppid, s.hash(phi.Args[i])})
		}
	}
	slices.SortStableFunc(out, func(x, y phiArg) int { return cmp.Compare(x.ppid, y.ppid) })
	return out
}

// checkPhiArgs verifies one paired phi predecessor-wise. Predecessor pairing
// follows the block pairing; when a predecessor appears several times in
// Preds, the k-th occurrence on one side pairs with the k-th on the other —
// if the k-th occurrences disagree hash-wise the result is Unverified (the
// positional assumption cannot be trusted for a proof either way).
func (e *equiv) checkPhiArgs(pid int, p blockPair, phiB, phiA *lir.Value) (Verdict, string, bool) {
	e.argsB = e.before.phiArgs(e.argsB[:0], p.b, phiB)
	e.argsA = e.after.phiArgs(e.argsA[:0], p.a, phiA)
	if distinctPreds(e.argsB) != distinctPreds(e.argsA) {
		v, r := e.unverified(false, "pair %d phi: predecessor sets differ", pid)
		return v, r, false
	}
	mb, ma := e.argsB, e.argsA
	for len(mb) > 0 {
		ppid := mb[0].ppid
		nb, na := groupLen(mb), 0
		for len(ma) > 0 && ma[0].ppid < ppid {
			ma = ma[groupLen(ma):]
		}
		if len(ma) > 0 && ma[0].ppid == ppid {
			na = groupLen(ma)
		}
		if na != nb {
			v, r := e.unverified(false, "pair %d phi: predecessor pair %d occurrence mismatch", pid, ppid)
			return v, r, false
		}
		for k := 0; k < nb; k++ {
			if mb[k].hash != ma[k].hash {
				v, r := e.unverified(false, "pair %d phi: argument from predecessor pair %d differs", pid, ppid)
				return v, r, false
			}
		}
		mb, ma = mb[nb:], ma[na:]
	}
	return 0, "", true
}

// groupLen is the length of the leading run of one predecessor pair.
func groupLen(args []phiArg) int {
	n := 1
	for n < len(args) && args[n].ppid == args[0].ppid {
		n++
	}
	return n
}

func distinctPreds(args []phiArg) int {
	n := 0
	for len(args) > 0 {
		args = args[groupLen(args):]
		n++
	}
	return n
}

// disprove reports a proof that vb (before) and va (after) compute different
// values: distinct integer constants, or flattened add/xor chains over
// identical leaves with different constant parts (x+c1 != x+c2 and
// x^c1 != x^c2 for c1 != c2 in two's complement).
func (e *equiv) disprove(vb, va *lir.Value) (string, bool) {
	t := &e.t
	hb, ha := e.before.hash(vb), e.after.hash(va)
	cb, okB := t.intOf(hb)
	ca, okA := t.intOf(ha)
	if okB && okA && cb != ca {
		return fmt.Sprintf("constant %d became %d", cb, ca), true
	}
	fb, fa := e.before.val(vb).flat, e.after.val(va).flat
	if fb != 0 && fa != 0 {
		opB, cnstB, leavesB, multsB := t.flat(fb)
		opA, cnstA, leavesA, multsA := t.flat(fa)
		if opB == opA && (opB == lir.OpAdd || opB == lir.OpXor) &&
			cnstB != cnstA && slices.Equal(leavesB, leavesA) && slices.Equal(multsB, multsA) {
			return fmt.Sprintf("%s chain constant %d became %d over identical operands", opB, cnstB, cnstA), true
		}
	}
	// x vs x+c (c != 0): one side is a flattened chain whose leaves are
	// exactly {other side's hash} with a nonzero constant.
	if fa != 0 {
		if why, ok := offsetBy(t, fa, hb, 1); ok {
			return why, true
		}
	}
	if fb != 0 {
		return offsetBy(t, fb, ha, -1)
	}
	return "", false
}

// offsetBy proves x vs x+c (c != 0): chain is an add chain whose only leaf,
// taken once, is other, with a nonzero constant; sign orients the offset.
func offsetBy(t *table, chain, other nodeID, sign int64) (string, bool) {
	op, cnst, leaves, mults := t.flat(chain)
	if op == lir.OpAdd && cnst != 0 && len(leaves) == 1 && mults[0] == 1 && leaves[0] == other {
		return fmt.Sprintf("value was offset by %d", sign*cnst), true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Per-side hashing

// observableOp reports ops whose execution is externally visible (§3.4
// verification map): memory writes, calls, allocations (their addresses feed
// later observables). GCCheck and BoundsCheck are excluded — gccheckelim and
// bce legitimately remove them; the trap set covers bounds checks.
func observableOp(op lir.Op) bool {
	switch op {
	case lir.OpArrStore, lir.OpFieldStore, lir.OpStaticStore,
		lir.OpCallStatic, lir.OpCallVirtual, lir.OpCallNative,
		lir.OpNewArray, lir.OpNewObject:
		return true
	}
	return false
}

func appendObservables(out []*lir.Value, b *lir.Block) []*lir.Value {
	for _, v := range b.Insns {
		if observableOp(v.Op) {
			out = append(out, v)
		}
	}
	return out
}

// appendNontrivialPhis appends the live phis that did not collapse to an
// argument: the ones whose hash is still a positional token. Dead phis never
// enter a comparison, so a pass deleting them must not shift the pairing.
func (s *side) appendNontrivialPhis(out []*lir.Value, b *lir.Block) []*lir.Value {
	for _, p := range b.Phis {
		if s.val(p).live && s.t.kind(s.hash(p)) == kPhiTok {
			out = append(out, p)
		}
	}
	return out
}

// computeLive marks every value whose hash can enter a comparison: the
// arguments of observables and terminators, the trap-risky operations, and
// everything reachable from those through arguments.
func (s *side) computeLive() {
	stack := s.stack[:0]
	for _, b := range s.fn.Blocks {
		for _, v := range b.Insns {
			if observableOp(v.Op) || v.IsTerminator() ||
				v.Op == lir.OpDiv || v.Op == lir.OpRem || v.Op == lir.OpBoundsCheck {
				stack = append(stack, v)
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if st := s.val(v); !st.live {
			st.live = true
			stack = append(stack, v.Args...)
		}
	}
	s.stack = stack
}

// indexMemory walks each block once, assigning observable indices (memory
// state tokens) to loads and recording exact-location store-to-load
// forwarding. Forwarding matches on the store kind, slot, and the *identical*
// SSA base/index values; any other store or any call invalidates everything,
// so at most one location is available at a time.
func (s *side) indexMemory() {
	type loc struct {
		op        lir.Op
		slot      int64
		base, idx *lir.Value
	}
	for _, b := range s.fn.Blocks {
		var avail loc
		var stored *lir.Value // nil: nothing available
		obs := int64(0)
		pid := s.tokenPair(b)
		load := func(v *lir.Value, at loc) {
			if stored != nil && avail == at {
				s.val(v).forward = stored
			} else {
				s.val(v).memtok = s.t.atom(kMem, pid, obs)
			}
		}
		for _, v := range b.Insns {
			switch v.Op {
			case lir.OpArrLoad:
				load(v, loc{lir.OpArrStore, 0, v.Args[0], v.Args[1]})
			case lir.OpFieldLoad:
				load(v, loc{lir.OpFieldStore, v.Slot, v.Args[0], nil})
			case lir.OpStaticLoad:
				load(v, loc{lir.OpStaticStore, v.Slot, nil, nil})
			case lir.OpArrStore:
				avail, stored = loc{lir.OpArrStore, 0, v.Args[0], v.Args[1]}, v.Args[2]
			case lir.OpFieldStore:
				avail, stored = loc{lir.OpFieldStore, v.Slot, v.Args[0], nil}, v.Args[1]
			case lir.OpStaticStore:
				avail, stored = loc{lir.OpStaticStore, v.Slot, nil, nil}, v.Args[0]
			case lir.OpCallStatic, lir.OpCallVirtual, lir.OpCallNative:
				stored = nil
			}
			if observableOp(v.Op) {
				obs++
			}
		}
	}
}

// assignPhiTokens names each currently-non-trivial phi by its pair and its
// position among its block's non-trivial phis.
func (s *side) assignPhiTokens() {
	for _, b := range s.fn.Blocks {
		pid := s.tokenPair(b)
		k := int64(0)
		for _, p := range b.Phis {
			st := s.val(p)
			if !st.live {
				continue // dead: excluded from positional pairing
			}
			if st.hash != 0 && s.t.kind(st.hash) != kPhiTok {
				continue // collapsed to its unique argument
			}
			st.phitok = s.t.atom(kPhiTok, pid, k)
			k++
		}
	}
}

// collapsePhis rewrites the memoized hash of any phi whose non-self
// arguments all share one hash to that hash (the prunePhis criterion).
// Reports whether anything collapsed this round.
func (s *side) collapsePhis() bool {
	changed := false
	for _, b := range s.fn.Blocks {
		for _, p := range b.Phis {
			st := s.val(p)
			if !st.live {
				continue
			}
			if st.hash != 0 && s.t.kind(st.hash) != kPhiTok {
				continue // already collapsed
			}
			if to := s.trivialTo(p); to != 0 {
				s.val(p).hash = to
				changed = true
			}
		}
	}
	return changed
}

// trivialTo returns the single shared argument hash of a trivial phi, or 0.
func (s *side) trivialTo(p *lir.Value) nodeID {
	var shared nodeID
	for _, a := range p.Args {
		if a == p {
			continue
		}
		h := s.hash(a)
		if shared == 0 {
			shared = h
		} else if shared != h {
			return 0
		}
	}
	return shared
}

// resetHashes drops memoized hashes between phi-collapse rounds, keeping
// collapsed phi hashes (they seed the next round).
func (s *side) resetHashes() {
	for i := range s.vals {
		st := &s.vals[i]
		if st.v == nil {
			continue
		}
		if st.v.Op != lir.OpPhi || st.hash == 0 || s.t.kind(st.hash) == kPhiTok {
			st.hash = 0
		}
		st.flat = 0
	}
}

// flattenable ops: fully associative and commutative over int64.
func flattenable(op lir.Op) bool {
	switch op {
	case lir.OpAdd, lir.OpMul, lir.OpAnd, lir.OpOr, lir.OpXor:
		return true
	}
	return false
}

// hash returns the canonical expression node for v.
func (s *side) hash(v *lir.Value) nodeID {
	st := s.val(v)
	if st.hash != 0 {
		return st.hash
	}
	if st.busy {
		// A cycle not broken by a phi token: opaque, unique per value so it
		// never spuriously matches.
		return s.t.opaqueFor(v, opaqueCycle)
	}
	st.busy = true
	h := s.compute(v)
	st = s.val(v)
	st.busy = false
	st.hash = h
	return h
}

func (s *side) isConst(h nodeID) bool { return s.t.kind(h) == kConstInt }

func (s *side) compute(v *lir.Value) nodeID {
	t := s.t
	switch v.Op {
	case lir.OpConstInt:
		return t.constInt(v.Imm)
	case lir.OpConstFloat:
		return t.constFloat(v.F)
	case lir.OpParam:
		return t.atom(kParam, v.Slot, 0)
	case lir.OpPhi:
		// Trivial-phi collapse happens in collapsePhis rounds; here a phi
		// always answers with its positional token, so hashing its own
		// arguments (loop-carried values) stays cycle-free.
		if tok := s.val(v).phitok; tok != 0 {
			return tok
		}
		return t.opaqueFor(v, opaquePhi)
	case lir.OpArrLoad, lir.OpFieldLoad, lir.OpStaticLoad:
		if st := s.val(v).forward; st != nil {
			return s.hash(st)
		}
		return s.exprOf(v, v.Slot, 0, s.val(v).memtok)
	case lir.OpArrLen:
		return t.expr(lir.OpArrLen, 0, 0, s.hash(v.Args[0]))
	}
	if observableOp(v.Op) {
		// An observable's value (call result, allocation address) is named
		// by its position: pair plus observable index.
		pid, paired := s.pairOf(v.Block)
		if !paired {
			return t.opaqueFor(v, opaqueObs)
		}
		return t.atom(kObs, int64(pid), int64(s.val(v).obs)-1)
	}
	if flattenable(v.Op) {
		var cnst int64
		switch v.Op {
		case lir.OpMul:
			cnst = 1
		case lir.OpAnd:
			cnst = -1
		}
		return s.hashFlatAs(v, v.Op, cnst, v.Args)
	}
	// Identity normalizations for the remaining shapes.
	switch v.Op {
	case lir.OpSub, lir.OpShr, lir.OpShl, lir.OpDiv, lir.OpRem:
		a, b := s.hash(v.Args[0]), s.hash(v.Args[1])
		ca, aok := t.intOf(a)
		cb, bok := t.intOf(b)
		if aok && bok {
			if r, ok := lir.FoldInt(v.Op, ca, cb); ok {
				return t.constInt(r)
			}
		}
		switch {
		case !bok:
		case cb == 0 && (v.Op == lir.OpSub || v.Op == lir.OpShr):
			return a // x-0, x>>0
		case v.Op == lir.OpShl:
			// x << c is x * (1 << c) in wrapping two's complement, with
			// opsem's shift count, so a strength-reduced shift hashes
			// identically to the multiply it came from.
			return s.hashFlatAs(v, lir.OpMul, opsem.Shl(1, cb), v.Args[:1])
		case cb == 1 && v.Op == lir.OpDiv:
			return a
		}
		return t.expr(v.Op, 0, 0, a, b)
	case lir.OpNeg:
		a := s.hash(v.Args[0])
		if ca, ok := t.intOf(a); ok {
			return t.constInt(-ca)
		}
		return t.expr(lir.OpNeg, 0, 0, a)
	case lir.OpFAdd, lir.OpFSub, lir.OpFMul, lir.OpFDiv:
		a, b := s.hash(v.Args[0]), s.hash(v.Args[1])
		if fa, aok := t.floatOf(a); aok {
			if fb, bok := t.floatOf(b); bok {
				if r, ok := lir.FoldFloat(v.Op, fa, fb); ok {
					return t.constFloat(r)
				}
			}
		}
		return t.expr(v.Op, 0, 0, a, b)
	case lir.OpFNeg:
		a := s.hash(v.Args[0])
		if fa, ok := t.floatOf(a); ok {
			r, _ := lir.FoldFloat(lir.OpFNeg, fa, 0)
			return t.constFloat(r)
		}
		return t.expr(lir.OpFNeg, 0, 0, a)
	case lir.OpI2F:
		a := s.hash(v.Args[0])
		if ca, ok := t.intOf(a); ok {
			return t.constFloat(float64(ca))
		}
		return t.expr(lir.OpI2F, 0, 0, a)
	case lir.OpF2I:
		a := s.hash(v.Args[0])
		if fa, ok := t.floatOf(a); ok {
			return t.constInt(opsem.F2I(fa))
		}
		return t.expr(lir.OpF2I, 0, 0, a)
	case lir.OpFCmp:
		a, b := s.hash(v.Args[0]), s.hash(v.Args[1])
		if fa, aok := t.floatOf(a); aok {
			if fb, bok := t.floatOf(b); bok {
				return t.constInt(opsem.FCmp(fa, fb))
			}
		}
		return t.expr(lir.OpFCmp, 0, 0, a, b)
	case lir.OpClassOf, lir.OpIntrinsic:
		return s.exprOf(v, 0, int64(v.Sym))
	}
	// Anything else (void checks, terminators asked for directly) hashes
	// structurally.
	return s.exprOf(v, v.Slot, int64(v.Sym))
}

// exprOf interns v's op over the given leading kids and v's hashed
// arguments.
func (s *side) exprOf(v *lir.Value, x, y int64, lead ...nodeID) nodeID {
	var buf [4]nodeID
	kids := append(buf[:0], lead...)
	for _, a := range v.Args {
		kids = append(kids, s.hash(a))
	}
	return s.t.intern(kExpr, v.Op, x, y, kids, nil)
}

// hashFlatAs flattens args as an op-chain seeded with the constant cnst:
// same-op children merge their own memoized chains, constants fold into
// one, identities drop out, and the leaves are counted and sorted. The
// chain's kFlat record is memoized under v. OpShl's strength-reduction
// alias enters here with op=OpMul and cnst=2^shift.
//
// Merging memoized chains keeps the work linear in the function's size
// where walking the DAG again would be exponential in shared depth. A
// multiplicity that would overflow int64 makes the chain opaque, which can
// only cost a proof (Unverified), never produce a rejection.
func (s *side) hashFlatAs(v *lir.Value, op lir.Op, cnst int64, args []*lir.Value) nodeID {
	t := s.t
	// Hash every operand first, so all recursion is done before the shared
	// scratch buffers are filled.
	type part struct {
		hash, flat nodeID
	}
	var buf [2]part
	parts := buf[:0]
	for _, a := range args {
		enter := !s.val(a).busy && (a.Op == op ||
			op == lir.OpMul && a.Op == lir.OpShl && s.isConst(s.hash(a.Args[1])))
		h := s.hash(a)
		var fl nodeID
		if enter {
			fl = s.val(a).flat
		}
		parts = append(parts, part{h, fl})
	}
	leaves := t.leafBuf[:0]
	for _, p := range parts {
		if p.flat != 0 {
			_, c, ls, ms := t.flat(p.flat)
			cnst, _ = lir.FoldInt(op, cnst, c)
			for i, l := range ls {
				leaves = append(leaves, leafCount{l, ms[i]})
			}
			continue
		}
		if c, ok := t.intOf(p.hash); ok {
			cnst, _ = lir.FoldInt(op, cnst, c)
			continue
		}
		leaves = append(leaves, leafCount{p.hash, 1})
	}
	slices.SortFunc(leaves, func(x, y leafCount) int { return cmp.Compare(x.leaf, y.leaf) })
	kids, mults := t.kidBuf[:0], t.multBuf[:0]
	for _, l := range leaves {
		if n := len(kids); n > 0 && kids[n-1] == l.leaf {
			if mults[n-1] > math.MaxInt64-l.mult {
				t.leafBuf, t.kidBuf, t.multBuf = leaves, kids, mults
				return t.fresh()
			}
			mults[n-1] += l.mult
			continue
		}
		kids, mults = append(kids, l.leaf), append(mults, l.mult)
	}
	t.leafBuf, t.kidBuf, t.multBuf = leaves, kids, mults
	// Annihilators and identities.
	if (op == lir.OpMul || op == lir.OpAnd) && cnst == 0 {
		s.val(v).flat = t.intern(kFlat, op, cnst, 0, nil, nil)
		return t.constInt(0)
	}
	flat := t.intern(kFlat, op, cnst, 0, kids, mults)
	s.val(v).flat = flat
	if len(kids) == 0 {
		return t.constInt(cnst)
	}
	identity := (op == lir.OpAdd && cnst == 0) || (op == lir.OpOr && cnst == 0) ||
		(op == lir.OpXor && cnst == 0) || (op == lir.OpMul && cnst == 1) || (op == lir.OpAnd && cnst == -1)
	if len(kids) == 1 && mults[0] == 1 && identity {
		return kids[0]
	}
	return flat
}

// trapKey is one potentially-trapping operation: its op and operand hashes.
type trapKey struct {
	op   lir.Op
	a, b nodeID
}

// appendTraps collects the function-wide set of potentially-trapping
// operations, sorted and deduplicated: division/remainder by a non-constant
// (or provably-zero) divisor, and bounds checks. Hashes are positionless
// sets on purpose: array lengths are immutable in this IR, so a check's
// outcome is a pure function of its (array, index) values, and GVN deleting
// a dominated duplicate check leaves the set — and the trap behavior —
// unchanged.
func (s *side) appendTraps(out []trapKey) []trapKey {
	for _, b := range s.fn.Blocks {
		if _, paired := s.pairOf(b); !paired {
			continue // unreachable or unpaired: never executes
		}
		for _, v := range b.Insns {
			switch v.Op {
			case lir.OpDiv, lir.OpRem:
				db := s.hash(v.Args[1])
				if c, ok := s.t.intOf(db); ok && c != 0 {
					break // constant nonzero divisor: no trap possible
				}
				out = append(out, trapKey{v.Op, s.hash(v.Args[0]), db})
			case lir.OpBoundsCheck:
				out = append(out, trapKey{v.Op, s.hash(v.Args[0]), s.hash(v.Args[1])})
			}
		}
	}
	slices.SortFunc(out, func(x, y trapKey) int {
		return cmp.Or(cmp.Compare(x.op, y.op), cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	return slices.Compact(out)
}

// dominatesAllExits reports whether b dominates every reachable exit block
// (return or throw) — i.e. runs on every terminating execution. A function
// with no reachable exit never terminates normally; nothing dominates "all
// exits" vacuously usefully, so that returns false.
func dominatesAllExits(f *lir.Function, d *lir.Dominance, b *lir.Block) bool {
	exits := 0
	for _, x := range f.Blocks {
		if !d.Reachable(x) {
			continue
		}
		t := x.Term()
		if t == nil || (t.Op != lir.OpReturn && t.Op != lir.OpThrow) {
			continue
		}
		exits++
		if !d.Dominates(b, x) {
			return false
		}
	}
	return exits > 0
}

// resize returns a zeroed slice of length n, reusing s's storage.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
