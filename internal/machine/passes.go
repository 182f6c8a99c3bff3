package machine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"replayopt/internal/flow"
)

// LowerOpts are the llc-analogue knobs (CPU-specific options in §4). They
// are controlled per-genome by the GA.
type LowerOpts struct {
	FuseLiterals bool // fold Ldi constants into immediate operand forms
	FuseMaddInt  bool // Mul+Add -> Madd (safe for two's-complement ints)
	// FuseMaddFloat folds FMul+FAdd into FMadd. UNSAFE: fused multiply-add
	// rounds once, so results differ bitwise from the unfused sequence and
	// the verification map will usually reject the binary — exactly like
	// enabling fp-contract without fast-math guarantees.
	FuseMaddFloat bool
	Schedule      bool // list-schedule blocks to hide result latency
	NumRegs       int  // physical registers available (default 26)
	BlockAlign    bool // cosmetic size padding (costs size, no speed)
}

// DefaultLowerOpts returns the conservative default (the Android compiler's
// character: correct, minimal transformation).
func DefaultLowerOpts() LowerOpts {
	return LowerOpts{NumRegs: 26}
}

// CompileError reports a machine-pass failure (e.g. unallocatable code) —
// one of the "compiler error" outcomes of Fig. 1.
type CompileError struct{ Msg string }

func (e *CompileError) Error() string { return "machine: " + e.Msg }

// Finalize runs the machine passes over fn in place: peepholes, scheduling,
// then register allocation. fn.Code uses virtual registers on entry and
// physical registers on return.
func Finalize(fn *Fn, numArgs int, opts LowerOpts) error {
	if opts.NumRegs == 0 {
		opts.NumRegs = 26
	}
	foldMoves(fn) // register-allocator copy coalescing; both toolchains get it
	if opts.FuseLiterals {
		fuseLiterals(fn)
	}
	if opts.FuseMaddInt || opts.FuseMaddFloat {
		fuseMadd(fn, opts.FuseMaddInt, opts.FuseMaddFloat)
	}
	if opts.Schedule {
		schedule(fn)
	}
	return regalloc(fn, numArgs, opts.NumRegs)
}

// blockStarts returns the set of pcs that begin basic blocks.
func blockStarts(code []Insn) []int {
	isStart := make([]bool, len(code)+1)
	isStart[0] = true
	for pc := range code {
		in := &code[pc]
		if in.Op == Br || in.Op == Jmp {
			isStart[in.Imm] = true
		}
		if in.isTerminator() && pc+1 < len(code) {
			isStart[pc+1] = true
		}
	}
	starts := make([]int, 0, 16)
	for pc := range code {
		if isStart[pc] {
			starts = append(starts, pc)
		}
	}
	return starts
}

// maxReg returns one past the highest register index referenced by code.
func maxReg(code []Insn) int {
	n := 0
	var buf [8]int
	for pc := range code {
		for _, r := range code[pc].reads(buf[:]) {
			if r >= n {
				n = r + 1
			}
		}
		if d := code[pc].writes(); d >= n {
			n = d + 1
		}
	}
	return n
}

// useCounts returns, per register, how many instructions read it.
func useCounts(code []Insn, nreg int) []int32 {
	uses := make([]int32, nreg)
	var buf [8]int
	for pc := range code {
		for _, r := range code[pc].reads(buf[:]) {
			uses[r]++
		}
	}
	return uses
}

// liveSets is per-block liveness over linear code. Only a block-crossing
// register, one that some block reads before writing it, can be live at a
// block boundary: a register live into a block is read on some path before
// any write, and the block holding that read reads it before writing it. So
// the sets range over the block-crossing registers alone, densely
// renumbered, and any other register is live at no boundary. That keeps the
// solver's work proportional to the registers that cross blocks, not to all
// registers times all blocks.
type liveSets struct {
	idx     []int32    // by register: its index in the sets, or -1
	regs    []int      // by index: the register
	in, out []flow.Set // by block
}

// liveOut reports whether r is live on exit from block b.
func (l *liveSets) liveOut(b, r int) bool {
	i := l.idx[r]
	return i >= 0 && l.out[b].Has(int(i))
}

// liveness computes per-block liveness over linear code with flow's backward
// solver, over registers 0..nreg-1.
func liveness(code []Insn, starts, blockOf []int, nreg int) *liveSets {
	nblocks := len(starts)
	blockEnd := func(bi int) int {
		if bi+1 < nblocks {
			return starts[bi+1]
		}
		return len(code)
	}
	// written[r] == bi+1 once block bi has written r. The first walk marks
	// (idx[r] = 1) every register some block reads before writing it.
	idx := make([]int32, nreg)
	written := make([]int32, nreg)
	ncross := 0
	var buf [8]int
	for bi, s := range starts {
		end := blockEnd(bi)
		stamp := int32(bi + 1)
		for pc := s; pc < end; pc++ {
			in := &code[pc]
			for _, r := range in.reads(buf[:]) {
				if written[r] != stamp && idx[r] == 0 {
					idx[r] = 1
					ncross++
				}
			}
			if w := in.writes(); w >= 0 {
				written[w] = stamp
			}
		}
	}
	l := &liveSets{idx: idx, regs: make([]int, 0, ncross)}
	for r, crosses := range idx {
		if crosses != 0 {
			idx[r] = int32(len(l.regs))
			l.regs = append(l.regs, r)
		} else {
			idx[r] = -1
		}
	}
	clear(written)
	succ := flow.NewAdj(nblocks, 2*nblocks)
	use, def := flow.NewSets(nblocks, len(l.regs)), flow.NewSets(nblocks, len(l.regs))
	for bi, s := range starts {
		end := blockEnd(bi)
		stamp := int32(bi + 1)
		for pc := s; pc < end; pc++ {
			in := &code[pc]
			for _, r := range in.reads(buf[:]) {
				if written[r] != stamp {
					use[bi].Add(int(idx[r]))
				}
			}
			if w := in.writes(); w >= 0 {
				written[w] = stamp
				if i := idx[w]; i >= 0 {
					def[bi].Add(int(i))
				}
			}
		}
		switch last := &code[end-1]; {
		case last.Op == Br:
			succ.Add(int32(blockOf[last.Imm]))
			if end < len(code) {
				succ.Add(int32(bi + 1))
			}
		case last.Op == Jmp:
			succ.Add(int32(blockOf[last.Imm]))
		case !last.isTerminator() && end < len(code):
			succ.Add(int32(bi + 1))
		}
		succ.End()
	}
	l.in, l.out = flow.Backward(succ, use, def)
	if livenessHit != nil {
		livenessHit(code, starts, blockOf, nreg, l)
	}
	return l
}

// livenessHit, when set, sees every liveness computation and its answer.
// Tests set it (OnLiveness) to check the answer against a dense reference.
var livenessHit func(code []Insn, starts, blockOf []int, nreg int, l *liveSets)

// blockIndex returns, per pc, the index of the block containing it.
func blockIndex(code []Insn, starts []int) []int {
	blockOf := make([]int, len(code))
	for bi, s := range starts {
		end := len(code)
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		for pc := s; pc < end; pc++ {
			blockOf[pc] = bi
		}
	}
	return blockOf
}

// foldMoves folds a definition into an immediately following move of its
// result (`op X, ...; mov Y, X` becomes `op Y, ...`) when X is provably dead
// afterwards — the move coalescing every register allocator performs, which
// removes the bytecode's assignment-temporary copies.
func foldMoves(fn *Fn) {
	code := fn.Code
	starts := blockStarts(code)
	blockIdx := blockIndex(code, starts)
	live := liveness(code, starts, blockIdx, maxReg(code))
	startSet := make([]bool, len(code)+1)
	for _, s := range starts {
		startSet[s] = true
	}
	var buf [8]int
	// deadAfter reports whether reg X is dead immediately after pc (within
	// pc's block, considering live-out).
	deadAfter := func(x, pc int) bool {
		bi := blockIdx[pc]
		end := len(code)
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		for j := pc + 1; j < end; j++ {
			for _, r := range code[j].reads(buf[:]) {
				if r == x {
					return false
				}
			}
			if code[j].writes() == x {
				return true // redefined before any read
			}
		}
		return !live.liveOut(bi, x)
	}
	remap := make([]int, len(code)+1)
	out := code[:0]
	kept := 0
	skip := false
	for pc := range code {
		remap[pc] = kept
		if skip {
			skip = false
			continue
		}
		in := code[pc]
		if d := in.writes(); d >= 0 && pc+1 < len(code) && !startSet[pc+1] {
			next := code[pc+1]
			if next.Op == Mov && next.B == d && next.A != d && deadAfter(d, pc+1) {
				in.A = next.A
				out = append(out, in)
				kept++
				skip = true
				continue
			}
		}
		out = append(out, in)
		kept++
	}
	remap[len(code)] = kept
	fn.Code = out
	retarget(fn.Code, remap)
}

// fuseLiterals folds single-use Ldi constants into the immediate form of
// integer ALU ops and branches, then drops dead Ldis.
func fuseLiterals(fn *Fn) {
	code := fn.Code
	starts := blockStarts(code)
	startSet := make([]bool, len(code)+1)
	for _, s := range starts {
		startSet[s] = true
	}
	// Per block: track which reg holds which constant.
	consts := map[int]int64{}
	for pc := range code {
		if startSet[pc] {
			clear(consts)
		}
		in := &code[pc]
		// Fold a known constant used as the C operand.
		switch in.Op {
		case Add, Sub, Mul, And, Or, Xor, Shl, Shr, Br:
			if in.C >= 0 {
				if v, ok := consts[in.C]; ok && fitsImm(v) {
					in.C = -1
					in.Disp = v
				}
			}
		}
		if d := in.writes(); d >= 0 {
			delete(consts, d)
			if in.Op == Ldi {
				consts[in.A] = in.Imm
			}
		}
	}
	// Drop Ldis whose register is no longer read anywhere.
	uses := useCounts(code, maxReg(code))
	out := code[:0]
	remap := make([]int, len(code)+1)
	kept := 0
	for pc := range code {
		remap[pc] = kept
		if code[pc].Op == Ldi && uses[code[pc].A] == 0 {
			continue
		}
		out = append(out, code[pc])
		kept++
	}
	remap[len(code)] = kept
	fn.Code = out
	retarget(fn.Code, remap)
}

func fitsImm(v int64) bool { return v >= -1<<31 && v < 1<<31 }

// retarget rewrites branch targets through an old-pc -> new-pc map.
func retarget(code []Insn, remap []int) {
	for pc := range code {
		in := &code[pc]
		if in.Op == Br || in.Op == Jmp {
			in.Imm = int64(remap[in.Imm])
		}
	}
}

// fuseMadd combines an adjacent multiply+add pair into a fused form when the
// intermediate is used exactly once.
func fuseMadd(fn *Fn, doInt, doFloat bool) {
	code := fn.Code
	uses := useCounts(code, maxReg(code))
	starts := blockStarts(code)
	startSet := make([]bool, len(code)+1)
	for _, s := range starts {
		startSet[s] = true
	}
	remap := make([]int, len(code)+1)
	out := code[:0]
	kept := 0
	skip := false
	for pc := range code {
		remap[pc] = kept
		if skip {
			skip = false
			continue
		}
		in := code[pc]
		if pc+1 < len(code) && !startSet[pc+1] {
			next := code[pc+1]
			if ok, fused := tryFuse(in, next, uses, doInt, doFloat); ok {
				out = append(out, fused)
				kept++
				skip = true
				continue
			}
		}
		out = append(out, in)
		kept++
	}
	remap[len(code)] = kept
	fn.Code = out
	retarget(fn.Code, remap)
}

func tryFuse(mul, add Insn, uses []int32, doInt, doFloat bool) (bool, Insn) {
	intPair := doInt && mul.Op == Mul && add.Op == Add
	floatPair := doFloat && mul.Op == FMul && add.Op == FAdd
	if !intPair && !floatPair {
		return false, Insn{}
	}
	if mul.C < 0 || add.C < 0 { // immediate forms not fusable
		return false, Insn{}
	}
	t := mul.A
	if uses[t] != 1 {
		return false, Insn{}
	}
	var other int
	switch t {
	case add.B:
		other = add.C
	case add.C:
		other = add.B
	default:
		return false, Insn{}
	}
	op := Madd
	if floatPair {
		op = FMadd
	}
	return true, Insn{Op: op, A: add.A, B: mul.B, C: mul.C, D: other}
}

// schedule reorders pure ops within each block so that a value's consumer
// does not immediately follow its producer, hiding result latency.
// Side-effecting instructions keep their relative order.
func schedule(fn *Fn) {
	code := fn.Code
	starts := blockStarts(code)
	nreg := maxReg(code)
	sc := scheduler{
		lastDef:  make([]int, nreg),
		defStamp: make([]int, nreg),
		lastUses: make([][]int, nreg),
		useStamp: make([]int, nreg),
	}
	for i, s := range starts {
		end := len(code)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		sc.block(code[s:end])
	}
}

// scheduler holds the list scheduler's tables, reused across the blocks of
// one function. A per-register entry belongs to the current block only when
// its stamp equals the block's, so those tables are never cleared.
type scheduler struct {
	stamp              int
	lastDef, defStamp  []int   // each register's last writer, if stamped
	lastUses           [][]int // its readers since then, if stamped
	useStamp           []int
	succs              [][]int // per instruction: the later ones that depend on it
	indeg, seen, ready []int   // seen[i] == j+1: i already precedes j; ready is sorted
	sched              []Insn
}

func (sc *scheduler) uses(r int) []int {
	if sc.useStamp[r] != sc.stamp {
		sc.useStamp[r] = sc.stamp
		sc.lastUses[r] = sc.lastUses[r][:0]
	}
	return sc.lastUses[r]
}

// block list-schedules one basic block in place, keeping its terminator last.
func (sc *scheduler) block(block []Insn) {
	n := len(block)
	if n < 3 {
		return
	}
	// Keep the terminator pinned.
	limit := n
	if block[n-1].isTerminator() {
		limit = n - 1
	}
	sc.stamp++
	if cap(sc.succs) < limit {
		sc.succs = make([][]int, limit)
		sc.indeg = make([]int, limit)
		sc.seen = make([]int, limit)
	}
	succs, indeg, seen := sc.succs[:limit], sc.indeg[:limit], sc.seen[:limit]
	for i := range succs {
		succs[i] = succs[i][:0]
		indeg[i], seen[i] = 0, 0
	}
	// Dependence edges, each pair once: i must precede j.
	lastSide := -1
	var buf [8]int
	for j := 0; j < limit; j++ {
		in := &block[j]
		add := func(i int) {
			if i >= 0 && seen[i] != j+1 {
				seen[i] = j + 1
				succs[i] = append(succs[i], j)
				indeg[j]++
			}
		}
		for _, r := range in.reads(buf[:]) {
			if sc.defStamp[r] == sc.stamp {
				add(sc.lastDef[r]) // RAW
			}
		}
		d := in.writes()
		if d >= 0 {
			if sc.defStamp[d] == sc.stamp {
				add(sc.lastDef[d]) // WAW
			}
			for _, u := range sc.uses(d) {
				add(u) // WAR
			}
		}
		if in.hasSideEffects() {
			add(lastSide)
			lastSide = j
		}
		for _, r := range in.reads(buf[:]) {
			sc.lastUses[r] = append(sc.uses(r), j)
		}
		if d >= 0 {
			sc.lastDef[d], sc.defStamp[d] = j, sc.stamp
			sc.lastUses[d] = sc.uses(d)[:0]
		}
	}
	// Greedy list scheduling: prefer an instruction that does not read the
	// previously emitted instruction's destination; among those, the
	// earliest in the original order.
	ready := sc.ready[:0]
	for j := 0; j < limit; j++ {
		if indeg[j] == 0 {
			ready = append(ready, j)
		}
	}
	sched := sc.sched[:0]
	prevDest := -1
	var prevLat uint64
	for len(ready) > 0 {
		pick := -1
		if prevLat > 0 {
			for k, j := range ready {
				stalls := false
				for _, r := range block[j].reads(buf[:]) {
					if r == prevDest {
						stalls = true
						break
					}
				}
				if !stalls {
					pick = k
					break
				}
			}
		}
		if pick < 0 {
			pick = 0
		}
		j := ready[pick]
		ready = slices.Delete(ready, pick, pick+1)
		sched = append(sched, block[j])
		prevDest = block[j].writes()
		prevLat = opLatency[block[j].Op]
		for _, s := range succs[j] {
			indeg[s]--
			if indeg[s] == 0 {
				at, _ := slices.BinarySearch(ready, s)
				ready = slices.Insert(ready, at, s)
			}
		}
	}
	sc.ready, sc.sched = ready, sched
	if len(sched) != limit {
		return // cycle (should not happen); keep original order
	}
	copy(block[:limit], sched)
}

// regalloc maps virtual registers to numRegs physical registers with
// furthest-end spilling. The first numArgs vregs are pre-colored to physical
// 0..numArgs-1 (the calling convention). Three scratch registers are
// reserved for spilled operands.
func regalloc(fn *Fn, numArgs, numRegs int) error {
	const scratch = 4 // worst case: 3 spilled reads + 1 spilled def
	if numRegs < numArgs+scratch+1 {
		return &CompileError{Msg: fmt.Sprintf("ran out of registers: %d available, %d args", numRegs, numArgs)}
	}
	code := fn.Code

	// Live intervals from real per-block liveness: a register's interval
	// covers [first def/use, last def/use], extended across any backward
	// branch whose target block has the register live-in (loop-carried
	// values). Without the liveness refinement, everything inside an
	// unrolled loop body would appear simultaneously live and spill.
	nreg := maxReg(code)
	if numArgs > nreg {
		nreg = numArgs
	}
	ivStart := make([]int, nreg)
	ivEnd := make([]int, nreg)
	ivSet := make([]bool, nreg)
	touch := func(r, pc int) {
		if ivSet[r] {
			if pc < ivStart[r] {
				ivStart[r] = pc
			}
			if pc > ivEnd[r] {
				ivEnd[r] = pc
			}
		} else {
			ivSet[r] = true
			ivStart[r], ivEnd[r] = pc, pc
		}
	}
	var buf [8]int
	for pc := range code {
		for _, r := range code[pc].reads(buf[:]) {
			touch(r, pc)
		}
		if d := code[pc].writes(); d >= 0 {
			touch(d, pc)
		}
	}
	// Arguments are live from function entry.
	for a := 0; a < numArgs; a++ {
		touch(a, 0)
	}

	// Per-block liveness.
	starts := blockStarts(code)
	blockOf := blockIndex(code, starts)
	live := liveness(code, starts, blockOf, nreg)
	// Extend intervals over backward branches for live-in registers of the
	// branch target. Only block-crossing registers can be live-in, and each
	// is read somewhere, so each has an interval.
	for changed := true; changed; {
		changed = false
		for pc := range code {
			in := &code[pc]
			if (in.Op != Br && in.Op != Jmp) || int(in.Imm) > pc {
				continue
			}
			target := blockOf[in.Imm]
			// The register is live around the loop [target start, pc].
			lo, hi := starts[target], pc
			for wi, w := range live.in[target] {
				for ; w != 0; w &= w - 1 {
					r := live.regs[wi*64+bits.TrailingZeros64(w)]
					if ivStart[r] <= hi && ivEnd[r] >= lo {
						if ivEnd[r] < hi {
							ivEnd[r] = hi
							changed = true
						}
						if ivStart[r] > lo {
							ivStart[r] = lo
							changed = true
						}
					}
				}
			}
		}
	}

	// Linear scan. Physical registers [0, numArgs) are the pinned args;
	// [numRegs-scratch, numRegs) are spill scratches; the pool is the rest.
	phys := make([]int, nreg)
	spillSlot := make([]int, nreg)
	for r := range phys {
		phys[r], spillSlot[r] = -1, -1
	}
	nspills := 0
	for a := 0; a < numArgs; a++ {
		phys[a] = a
	}
	vregs := make([]int, 0, nreg-numArgs)
	for r := numArgs; r < nreg; r++ {
		if ivSet[r] {
			vregs = append(vregs, r)
		}
	}
	slices.SortFunc(vregs, func(a, b int) int {
		if c := cmp.Compare(ivStart[a], ivStart[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// The free pool is a bitset; an interval takes its lowest member.
	pool := make(flow.Set, (numRegs+63)/64)
	for p := numArgs; p < numRegs-scratch; p++ {
		pool.Add(p)
	}
	type active struct {
		vreg, phys, end int
	}
	act := make([]active, 0, numRegs)
	expire := func(pos int) {
		out := act[:0]
		for _, a := range act {
			if a.end >= pos {
				out = append(out, a)
			} else {
				pool.Add(a.phys)
			}
		}
		act = out
	}
	for _, r := range vregs {
		start, end := ivStart[r], ivEnd[r]
		expire(start)
		if p := lowest(pool); p >= 0 {
			pool.Remove(p)
			phys[r] = p
			act = append(act, active{r, p, end})
			continue
		}
		// Spill the interval with the furthest end.
		far := -1
		for i, a := range act {
			if far < 0 || a.end > act[far].end {
				far = i
			}
		}
		if far >= 0 && act[far].end > end {
			victim := act[far]
			spillSlot[victim.vreg] = nspills
			nspills++
			phys[victim.vreg] = -1
			phys[r] = victim.phys
			act[far] = active{r, victim.phys, end}
		} else {
			spillSlot[r] = nspills
			nspills++
		}
	}

	// Rewrite code: spilled vregs load into scratches before use and store
	// after definition. Without spills every instruction becomes exactly one,
	// so the code and the call arguments are rewritten in place and branch
	// targets stay put.
	scratchBase := numRegs - scratch
	out := code[:0]
	var remap []int
	if nspills > 0 {
		extra := 0
		for pc := range code {
			for _, r := range code[pc].reads(buf[:]) {
				if phys[r] < 0 {
					extra++
				}
			}
			if d := code[pc].writes(); d >= 0 && phys[d] < 0 {
				extra++
			}
		}
		out = make([]Insn, 0, len(code)+extra)
		remap = make([]int, len(code)+1)
	}
	for pc := range code {
		if remap != nil {
			remap[pc] = len(out)
		}
		in := code[pc]
		nextScratch := 0
		takeScratch := func() int {
			s := scratchBase + nextScratch
			nextScratch++
			if nextScratch > scratch {
				panic("machine: out of scratch registers")
			}
			return s
		}
		// Rewrite reads.
		mapRead := func(r int) int {
			if p := phys[r]; p >= 0 {
				return p
			}
			slot := spillSlot[r]
			if slot < 0 {
				return r // untouched (should not happen)
			}
			s := takeScratch()
			out = append(out, Insn{Op: SpillLd, A: s, Imm: int64(slot)})
			return s
		}
		dst := in.writes()
		switch in.Op {
		case Nop, Ldi, Ldf, Jmp, GCChk, RetVoid, NewObj, SpillLd:
		case Mov, Neg, FNeg, I2F, F2I, ArrLen, NullChk, NewArr:
			in.B = mapRead(in.B)
		case Add, Sub, Mul, Div, Rem, DivU, RemU, And, Or, Xor, Shl, Shr,
			FAdd, FSub, FMul, FDiv, FCmp, Load, Br:
			in.B = mapRead(in.B)
			if in.C >= 0 {
				in.C = mapRead(in.C)
			}
		case Madd, FMadd:
			in.B = mapRead(in.B)
			in.C = mapRead(in.C)
			in.D = mapRead(in.D)
		case Store:
			in.A = mapRead(in.A)
			in.B = mapRead(in.B)
			if in.C >= 0 {
				in.C = mapRead(in.C)
			}
		case Bound:
			in.B = mapRead(in.B)
			in.C = mapRead(in.C)
		case Call, CallV, CallN, Intr:
			// Each spilled call argument needs its own scratch register.
			spilled := 0
			for _, r := range in.Args {
				if phys[r] < 0 && spillSlot[r] >= 0 {
					spilled++
				}
			}
			avail := scratch
			if dst >= 0 && spillSlot[dst] >= 0 {
				avail-- // one scratch is reserved for the result
			}
			if spilled > avail {
				return &CompileError{Msg: fmt.Sprintf(
					"ran out of registers: call needs %d spilled arguments, %d scratches", spilled, avail)}
			}
			newArgs := in.Args
			if nspills > 0 {
				newArgs = make([]int, len(in.Args))
			}
			for i, r := range in.Args {
				if p := phys[r]; p >= 0 {
					newArgs[i] = p
				} else if slot := spillSlot[r]; slot >= 0 {
					s := takeScratch()
					out = append(out, Insn{Op: SpillLd, A: s, Imm: int64(slot)})
					newArgs[i] = s
				} else {
					newArgs[i] = r
				}
			}
			in.Args = newArgs
		case Ret, Throw:
			in.A = mapRead(in.A)
		case SpillSt:
			in.B = mapRead(in.B)
		}
		// Rewrite the write.
		if dst >= 0 {
			if p := phys[dst]; p >= 0 {
				setDest(&in, p)
				out = append(out, in)
			} else if slot := spillSlot[dst]; slot >= 0 {
				s := takeScratch()
				setDest(&in, s)
				out = append(out, in)
				out = append(out, Insn{Op: SpillSt, B: s, Imm: int64(slot)})
			} else {
				out = append(out, in)
			}
		} else {
			out = append(out, in)
		}
	}
	if remap != nil {
		remap[len(code)] = len(out)
		retarget(out, remap)
	}
	fn.Code = out
	fn.NumRegs = numRegs
	fn.NumSpills = nspills
	return nil
}

func setDest(in *Insn, p int) { in.A = p }

// lowest returns the least member of s, or -1 if s is empty.
func lowest(s flow.Set) int {
	for i, w := range s {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
