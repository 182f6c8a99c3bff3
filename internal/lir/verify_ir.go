package lir

import "fmt"

// VerifyIR checks structural SSA invariants; passes are tested against it
// and the pipeline can assert it between stages (Config.CheckEach). Beyond
// the basic shape checks (block/phi/terminator structure, edge symmetry,
// unique IDs) it enforces the SSA dominance discipline: every use must be
// dominated by its definition — in straight-line code that means defined
// earlier in the same block — and a phi argument must be available at the end
// of the corresponding predecessor. Returns the first violation found.
//
// The tables are indexed by block position and value ID, so a check costs
// time linear in the function's size.
func VerifyIR(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("lir-verify: %s has no blocks", f.Name)
	}
	bidx := make(map[*Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		if _, dup := bidx[b]; dup {
			return fmt.Errorf("lir-verify: block b%d listed twice", b.ID)
		}
		bidx[b] = int32(i)
	}
	defs := newDefTable(f)
	for bi, b := range f.Blocks {
		for _, p := range b.Phis {
			if p.Op != OpPhi {
				return fmt.Errorf("lir-verify: non-phi %s in b%d's phi list", p.Op, b.ID)
			}
			if len(p.Args) != len(b.Preds) {
				return fmt.Errorf("lir-verify: phi v%d in b%d has %d args for %d preds",
					p.ID, b.ID, len(p.Args), len(b.Preds))
			}
			if prev, dup := defs.lookup(p); dup {
				return fmt.Errorf("lir-verify: value v%d defined in b%d and b%d", p.ID, f.Blocks[prev.block].ID, b.ID)
			}
			defs.define(p, defSite{int32(bi), -1})
		}
		for i, v := range b.Insns {
			if v.Op == OpPhi {
				return fmt.Errorf("lir-verify: phi v%d in b%d's instruction list", v.ID, b.ID)
			}
			if prev, dup := defs.lookup(v); dup {
				return fmt.Errorf("lir-verify: value v%d defined in b%d and b%d", v.ID, f.Blocks[prev.block].ID, b.ID)
			}
			defs.define(v, defSite{int32(bi), int32(i)})
			if v.IsTerminator() && i != len(b.Insns)-1 {
				return fmt.Errorf("lir-verify: terminator %s mid-block in b%d", v.Op, b.ID)
			}
		}
		t := b.Term()
		if t == nil {
			return fmt.Errorf("lir-verify: b%d has no terminator", b.ID)
		}
		switch t.Op {
		case OpBranch:
			if len(b.Succs) != 2 {
				return fmt.Errorf("lir-verify: branch block b%d has %d succs", b.ID, len(b.Succs))
			}
		case OpJump:
			if len(b.Succs) != 1 {
				return fmt.Errorf("lir-verify: jump block b%d has %d succs", b.ID, len(b.Succs))
			}
		case OpReturn, OpThrow:
			if len(b.Succs) != 0 {
				return fmt.Errorf("lir-verify: exit block b%d has %d succs", b.ID, len(b.Succs))
			}
		}
	}
	// Edge symmetry, in both directions: each b->s successor entry needs a
	// matching s.Preds entry and each pred entry a matching successor entry
	// (a dangling Preds entry corrupts phi indexing even when every Succs
	// entry checks out).
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if _, ok := bidx[s]; !ok {
				return fmt.Errorf("lir-verify: b%d's successor b%d is not in the function", b.ID, s.ID)
			}
			if found, want := count(s.Preds, b), count(b.Succs, s); found != want {
				return fmt.Errorf("lir-verify: edge b%d->b%d: %d pred entries for %d succ entries",
					b.ID, s.ID, found, want)
			}
		}
		for _, p := range b.Preds {
			if _, ok := bidx[p]; !ok {
				return fmt.Errorf("lir-verify: b%d's predecessor b%d is not in the function", b.ID, p.ID)
			}
			if found, want := count(p.Succs, b), count(b.Preds, p); found != want {
				return fmt.Errorf("lir-verify: edge b%d->b%d: %d succ entries for %d pred entries",
					p.ID, b.ID, found, want)
			}
		}
	}
	// Every argument must be defined somewhere in the function, and IDs must
	// be unique. The user's label is formatted only for a violation.
	label := func(v *Value, b *Block) string {
		if v.Op == OpPhi {
			return fmt.Sprintf("phi v%d in b%d", v.ID, b.ID)
		}
		return fmt.Sprintf("v%d (%s) in b%d", v.ID, v.Op, b.ID)
	}
	check := func(v *Value, b *Block) error {
		for _, a := range v.Args {
			if a == nil {
				return fmt.Errorf("lir-verify: nil argument in %s", label(v, b))
			}
			if _, ok := defs.lookup(a); !ok {
				return fmt.Errorf("lir-verify: %s uses v%d (%s) which is not defined in the function",
					label(v, b), a.ID, a.Op)
			}
		}
		if prev := defs.first(v.ID); prev != v {
			return fmt.Errorf("lir-verify: two distinct values share ID v%d (%s and %s)",
				v.ID, prev.Op, v.Op)
		}
		return nil
	}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			if err := check(p, b); err != nil {
				return err
			}
		}
		for _, v := range b.Insns {
			if err := check(v, b); err != nil {
				return err
			}
		}
	}
	return verifyDominance(f, bidx, defs)
}

func count(blocks []*Block, b *Block) int {
	n := 0
	for _, x := range blocks {
		if x == b {
			n++
		}
	}
	return n
}

// defSite locates a definition: the block's position in Function.Blocks and
// the instruction index (-1 for a phi).
type defSite struct {
	block, pos int32
}

// defTable maps each value defined in the function to its site. It is
// indexed by Value.ID offset by the smallest ID; a value whose ID another
// value already took (malformed IR) spills into a map, so every pointer
// keeps its own entry.
type defTable struct {
	base  int
	vals  []*Value // vals[id-base]: the first value defined with that ID
	sites []defSite
	spill map[*Value]defSite
}

func newDefTable(f *Function) *defTable {
	lo, hi := 0, -1
	for _, b := range f.Blocks {
		for _, vs := range [2][]*Value{b.Phis, b.Insns} {
			for _, v := range vs {
				lo, hi = min(lo, v.ID), max(hi, v.ID)
			}
		}
	}
	return &defTable{base: lo, vals: make([]*Value, hi-lo+1), sites: make([]defSite, hi-lo+1)}
}

// first returns the first value defined with the given ID, or nil.
func (d *defTable) first(id int) *Value {
	if i := id - d.base; i >= 0 && i < len(d.vals) {
		return d.vals[i]
	}
	return nil
}

func (d *defTable) lookup(v *Value) (defSite, bool) {
	if i := v.ID - d.base; i >= 0 && i < len(d.vals) && d.vals[i] == v {
		return d.sites[i], true
	}
	s, ok := d.spill[v]
	return s, ok
}

func (d *defTable) define(v *Value, s defSite) {
	if i := v.ID - d.base; i >= 0 && i < len(d.vals) && d.vals[i] == nil {
		d.vals[i], d.sites[i] = v, s
		return
	}
	if d.spill == nil {
		d.spill = map[*Value]defSite{}
	}
	d.spill[v] = s
}

// domInfo is a non-mutating dominator computation over the current CFG. The
// verifier cannot call Recompute — that would prune unreachable blocks and
// reorder Blocks, destroying the evidence it is asked to judge — so it
// rebuilds reachability and immediate dominators in side tables indexed by
// block position, then numbers the dominator tree so a dominance query is
// two comparisons.
type domInfo struct {
	pre, post []int32 // dominator-tree DFS entry and exit numbers; -1: unreachable
}

// dominatorsOf computes reachability from the entry and immediate dominators
// (Cooper-Harvey-Kennedy over a local reverse postorder) without touching
// any Block field. Every successor and predecessor must be in bidx.
func dominatorsOf(f *Function, bidx map[*Block]int32) *domInfo {
	n := len(f.Blocks)
	buf := make([]int32, 9*n)
	part := func() []int32 {
		p := buf[:n:n]
		buf = buf[n:]
		return p
	}
	order, stack, next := part()[:0], part()[:0], part()
	rpo, idom, child, sibling := part(), part(), part(), part()
	d := &domInfo{pre: part(), post: part()}
	for i := 0; i < n; i++ {
		rpo[i], idom[i], child[i], sibling[i], d.pre[i] = -1, -1, -1, -1, -1
	}
	// Postorder by an iterative DFS from the entry; next[b] is b's
	// successor cursor and rpo[b] >= 0 marks a block the DFS reached.
	rpo[0] = 0
	stack = append(stack, 0)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		if succs := f.Blocks[b].Succs; int(next[b]) < len(succs) {
			s := bidx[succs[next[b]]]
			next[b]++
			if rpo[s] < 0 {
				rpo[s] = 0
				stack = append(stack, s)
			}
			continue
		}
		order = append(order, b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		rpo[b] = int32(i)
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			nd := int32(-1)
			for _, p := range f.Blocks[b].Preds {
				pi := bidx[p]
				if idom[pi] < 0 {
					continue
				}
				if nd < 0 {
					nd = pi
				} else {
					nd = intersect(pi, nd)
				}
			}
			if nd >= 0 && idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}
	// Number the dominator tree: children as first-child/next-sibling
	// links, then an iterative DFS.
	for _, b := range order[1:] {
		p := idom[b]
		sibling[b], child[p] = child[p], b
	}
	clock := int32(0)
	d.pre[0] = clock
	clock++
	stack = append(stack, 0)
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if c := child[top]; c >= 0 {
			child[top] = sibling[c]
			d.pre[c] = clock
			clock++
			stack = append(stack, c)
			continue
		}
		d.post[top] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return d
}

func (d *domInfo) reach(b int32) bool { return d.pre[b] >= 0 }

// dominates reports whether block a dominates block b (both reachable).
func (d *domInfo) dominates(a, b int32) bool {
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}

// verifyDominance enforces def-before-use in dominance order: an instruction
// argument must be a phi of the same block, an earlier instruction of the
// same block, or a definition in a strictly dominating block; a phi argument
// must be available at the end of the corresponding predecessor. Unreachable
// blocks are exempt (Recompute deletes them wholesale), but a reachable use
// of an unreachably-defined value is a violation.
func verifyDominance(f *Function, bidx map[*Block]int32, defs *defTable) error {
	d := dominatorsOf(f, bidx)
	for bi, b := range f.Blocks {
		if !d.reach(int32(bi)) {
			continue
		}
		for _, p := range b.Phis {
			for i, a := range p.Args {
				pred := bidx[b.Preds[i]]
				if !d.reach(pred) {
					continue
				}
				da, _ := defs.lookup(a)
				if !d.reach(da.block) || !d.dominates(da.block, pred) {
					return fmt.Errorf("lir-verify: phi v%d in b%d: arg v%d (%s) does not dominate predecessor b%d",
						p.ID, b.ID, a.ID, a.Op, f.Blocks[pred].ID)
				}
			}
		}
		for i, v := range b.Insns {
			for _, a := range v.Args {
				da, _ := defs.lookup(a)
				switch {
				case da.block == int32(bi):
					if a.Op != OpPhi && int(da.pos) >= i {
						return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d (%s) defined later in the block",
							v.ID, v.Op, b.ID, a.ID, a.Op)
					}
				case !d.reach(da.block):
					return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d defined in unreachable b%d",
						v.ID, v.Op, b.ID, a.ID, f.Blocks[da.block].ID)
				case !d.dominates(da.block, int32(bi)):
					return fmt.Errorf("lir-verify: v%d (%s) in b%d uses v%d defined in non-dominating b%d",
						v.ID, v.Op, b.ID, a.ID, f.Blocks[da.block].ID)
				}
			}
		}
	}
	return nil
}
