package lir

import "math/bits"

// Analyses over the SSA CFG: reverse postorder, dominators, and loops.
//
// The contract: Recompute leaves Blocks in reverse postorder and sets every
// block's rpo, IDom, and dominator-tree numbering. All three stay valid from
// one Recompute until the next CFG edit (a block, edge, or Blocks-order
// change); a pass that edits the CFG calls Recompute before it next reads
// them, and before it returns, so every pass hands the next one a function in
// reverse postorder. Loop information is not cached at all: Loops computes
// it on demand from the current dominators. cfg.go's header says which CFG
// edits leave these analyses valid.

// Recompute reorders Blocks in reverse postorder, drops unreachable blocks
// (fixing phi inputs), and refreshes dominators.
func (f *Function) Recompute() {
	f.pruneUnreachable()
	f.computeDominators()
}

func (f *Function) pruneUnreachable() {
	if len(f.Blocks) == 0 {
		return
	}
	// Every block a pass creates lands in f.Blocks, so clearing the scratch
	// marks here lets the DFS avoid a per-Recompute visited map.
	for _, b := range f.Blocks {
		b.visited = false
	}
	post := make([]*Block, 0, len(f.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		if b.visited {
			return
		}
		b.visited = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Blocks[0])
	// Remove edges from unreachable predecessors.
	for _, b := range post {
		kept := b.Preds[:0]
		removed := make([]int, 0, 2)
		for i, p := range b.Preds {
			if p.visited {
				kept = append(kept, p)
			} else {
				removed = append(removed, i)
			}
		}
		if len(removed) > 0 {
			for _, phi := range b.Phis {
				args := phi.Args[:0]
				for i, a := range phi.Args {
					drop := false
					for _, r := range removed {
						if i == r {
							drop = true
							break
						}
					}
					if !drop {
						args = append(args, a)
					}
				}
				phi.Args = args
			}
		}
		b.Preds = kept
	}
	ordered := make([]*Block, len(post))
	for i := range post {
		ordered[i] = post[len(post)-1-i]
	}
	f.Blocks = ordered
	for i, b := range f.Blocks {
		b.rpo = i
	}
}

func (f *Function) computeDominators() {
	if len(f.Blocks) == 0 {
		return
	}
	entry := f.Blocks[0]
	for _, b := range f.Blocks {
		b.IDom = nil
	}
	entry.IDom = entry
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks[1:] {
			var nd *Block
			for _, p := range b.Preds {
				if p.IDom == nil {
					continue
				}
				if nd == nil {
					nd = p
				} else {
					nd = intersectDom(p, nd)
				}
			}
			if nd != nil && b.IDom != nd {
				b.IDom = nd
				changed = true
			}
		}
	}
	entry.IDom = nil
	f.numberDomTree()
}

// numberDomTree stamps every block with its dominator-tree DFS interval
// [domPre, domPost], so Dominates is two comparisons. Numbers start at 1, so
// a block made by NewBlock since (numbered 0) dominates only itself.
func (f *Function) numberDomTree() {
	kids := f.domChildren()
	clock := int32(0)
	var walk func(b *Block)
	walk = func(b *Block) {
		clock++
		b.domPre = clock
		for _, c := range kids.children(b) {
			walk(c)
		}
		b.domPost = clock
	}
	walk(f.Blocks[0])
}

func intersectDom(a, b *Block) *Block {
	for a != b {
		for a.rpo > b.rpo {
			if a.IDom == nil {
				return b
			}
			a = a.IDom
		}
		for b.rpo > a.rpo {
			if b.IDom == nil {
				return a
			}
			b = b.IDom
		}
	}
	return a
}

// Dominates reports whether a dominates b, in O(1) from the dominator-tree
// numbering of the last Recompute. Like IDom, it answers for the blocks that
// Recompute saw.
func (f *Function) Dominates(a, b *Block) bool {
	if a.domPre == 0 || b.domPre == 0 {
		return a == b
	}
	return a.domPre <= b.domPre && b.domPre <= a.domPost
}

// Loop is a natural loop in the SSA CFG.
type Loop struct {
	Head *Block
	// Blocks lists the loop's blocks in the reverse postorder of the Loops
	// call that found them.
	Blocks []*Block
	Depth  int
	Parent *Loop
	// in is the block set as bits over that call's reverse-postorder
	// positions; pos, shared by all loops of the call, maps Block.ID to its
	// position plus one. A block created since (its ID past pos, or 0 in it)
	// falls outside every loop, whatever its stale rpo.
	in  []uint64
	pos []int32
}

// Contains reports whether b is one of the loop's blocks.
func (l *Loop) Contains(b *Block) bool {
	if b.ID >= len(l.pos) {
		return false
	}
	p := l.pos[b.ID] - 1
	return p >= 0 && l.in[p>>6]&(1<<(uint(p)&63)) != 0
}

// Latches returns the in-loop predecessors of the head (back-edge sources).
func (l *Loop) Latches() []*Block {
	var out []*Block
	for _, p := range l.Head.Preds {
		if l.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// Loops detects natural loops, ordered by where each head's first back edge
// appears in Blocks. Call after Recompute: it reads dominators and rpo.
func (f *Function) Loops() []*Loop {
	pos := make([]int32, f.nextBlockID)
	for i, b := range f.Blocks {
		pos[b.ID] = int32(i + 1)
	}
	words := (len(f.Blocks) + 63) >> 6
	byHead := map[*Block]*Loop{}
	var loops []*Loop
	var stack []*Block
	for _, tail := range f.Blocks {
		for _, head := range tail.Succs {
			if !f.Dominates(head, tail) {
				continue
			}
			l := byHead[head]
			if l == nil {
				l = &Loop{Head: head, in: make([]uint64, words), pos: pos}
				l.in[head.rpo>>6] |= 1 << (uint(head.rpo) & 63)
				byHead[head] = l
				loops = append(loops, l)
			}
			// Walk up the predecessors from the tail; the head is already
			// in the set, so the walk stays inside the loop.
			stack = append(stack[:0], tail)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w, bit := x.rpo>>6, uint64(1)<<(uint(x.rpo)&63)
				if l.in[w]&bit == 0 {
					l.in[w] |= bit
					stack = append(stack, x.Preds...)
				}
			}
		}
	}
	for _, l := range loops {
		for w, word := range l.in {
			for ; word != 0; word &= word - 1 {
				l.Blocks = append(l.Blocks, f.Blocks[w<<6|bits.TrailingZeros64(word)])
			}
		}
	}
	for _, l := range loops {
		for _, outer := range loops {
			if outer == l || !outer.Contains(l.Head) {
				continue
			}
			if l.Parent == nil || len(outer.Blocks) < len(l.Parent.Blocks) {
				l.Parent = outer
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

// domTree is the dominator tree's child lists, packed in one slice and
// indexed by rpo.
type domTree struct {
	start []int32 // children of the block at rpo i are kids[start[i]:start[i+1]]
	kids  []*Block
}

func (t domTree) children(b *Block) []*Block { return t.kids[t.start[b.rpo]:t.start[b.rpo+1]] }

// domChildren builds the dominator tree's child lists, each in Blocks order.
func (f *Function) domChildren() domTree {
	n := len(f.Blocks)
	t := domTree{start: make([]int32, n+1), kids: make([]*Block, 0, n)}
	for _, b := range f.Blocks[1:] {
		t.start[b.IDom.rpo+1]++
	}
	for i := 0; i < n; i++ {
		t.start[i+1] += t.start[i]
	}
	t.kids = t.kids[:t.start[n]]
	fill := append([]int32(nil), t.start[:n]...)
	for _, b := range f.Blocks[1:] {
		t.kids[fill[b.IDom.rpo]] = b
		fill[b.IDom.rpo]++
	}
	return t
}

// dominanceFrontiers computes DF per block (Cooper-Harvey-Kennedy).
func (f *Function) dominanceFrontiers() map[*Block]map[*Block]bool {
	df := map[*Block]map[*Block]bool{}
	for _, b := range f.Blocks {
		df[b] = map[*Block]bool{}
	}
	for _, b := range f.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != b.IDom {
				df[runner][b] = true
				if runner.IDom == runner {
					break
				}
				runner = runner.IDom
			}
		}
	}
	return df
}
