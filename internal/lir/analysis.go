package lir

import (
	"math/bits"
	"sort"

	"replayopt/internal/flow"
)

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
//
// One function computes dominators: internal/flow's Dominators, which
// Dominance.build feeds the CFG's edges by block position and which writes
// only side tables. Recompute prunes and reorders by its result and
// stamps it into the blocks; VerifyIR and the translation validator, which
// must not edit what they judge, query it through DominanceOf.

// Recompute reorders Blocks in reverse postorder, drops unreachable blocks
// (fixing phi inputs), and refreshes dominators.
func (f *Function) Recompute() {
	if len(f.Blocks) == 0 {
		return
	}
	d := indexBlocks(f.Blocks)
	order := d.build()
	// Remove edges from unreachable predecessors.
	for _, i := range order {
		b := f.Blocks[i]
		kept := b.Preds[:0]
		removed := make([]int, 0, 2)
		for j, p := range b.Preds {
			if d.Reachable(p) {
				kept = append(kept, p)
			} else {
				removed = append(removed, j)
			}
		}
		if len(removed) > 0 {
			for _, phi := range b.Phis {
				args := phi.Args[:0]
				for j, a := range phi.Args {
					drop := false
					for _, r := range removed {
						if j == r {
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
	// Numbers start at 1, so a block made by NewBlock since (numbered 0)
	// dominates only itself.
	ordered := make([]*Block, len(order))
	for r, i := range order {
		b := f.Blocks[i]
		ordered[r] = b
		b.rpo = r
		b.IDom = f.Blocks[d.dom.Idom[i]]
		b.domPre, b.domPost = d.dom.Pre[i]+1, d.dom.Post[i]+1
	}
	ordered[0].IDom = nil
	f.Blocks = ordered
}

// Dominance is the dominator tree of a function's CFG as it stands, computed
// without touching the function. Recompute stamps it into the blocks after
// pruning; VerifyIR and the translation validator query it directly, because
// pruning and reordering would destroy the evidence they judge. An edge to or
// from a block that Blocks does not list is ignored.
type Dominance struct {
	blocks []*Block
	// pos maps Block.ID to the block's position in blocks (-1: none). It is
	// sized from the largest ID, not nextBlockID, which clones do not carry.
	pos []int32
	// dom is the dominator tree over positions.
	dom flow.Dom
}

// DominanceOf computes the dominator tree of f's CFG as it stands, without
// pruning, reordering or annotating anything.
func DominanceOf(f *Function) *Dominance {
	d := indexBlocks(f.Blocks)
	d.build()
	return d
}

// indexBlocks maps each block's ID to its position. A negative ID leaves a
// block unlisted; of two blocks sharing an ID the first is the one listed.
func indexBlocks(blocks []*Block) *Dominance {
	hi := -1
	for _, b := range blocks {
		hi = max(hi, b.ID)
	}
	d := &Dominance{blocks: blocks, pos: make([]int32, hi+1)}
	for i := range d.pos {
		d.pos[i] = -1
	}
	for i, b := range blocks {
		if b.ID >= 0 && d.pos[b.ID] < 0 {
			d.pos[b.ID] = int32(i)
		}
	}
	return d
}

// build computes the dominator tree with internal/flow's builder over the
// blocks' positions and returns the reachable positions in reverse
// postorder. An edge to or from an unlisted block is dropped.
func (d *Dominance) build() []int32 {
	n, m := len(d.blocks), 0
	for _, b := range d.blocks {
		m += max(len(b.Succs), len(b.Preds))
	}
	succ, pred := flow.NewAdjPair(n, m)
	for _, b := range d.blocks {
		for _, s := range b.Succs {
			succ.Add(d.at(s))
		}
		succ.End()
		for _, p := range b.Preds {
			pred.Add(d.at(p))
		}
		pred.End()
	}
	entry := int32(-1)
	if n > 0 {
		entry = d.at(d.blocks[0])
	}
	d.dom = flow.Dominators(succ, pred, entry)
	return d.dom.Order
}

// at returns b's position in the blocks, or -1 when they do not list it.
func (d *Dominance) at(b *Block) int32 {
	if b.ID < 0 || b.ID >= len(d.pos) {
		return -1
	}
	if i := d.pos[b.ID]; i >= 0 && d.blocks[i] == b {
		return i
	}
	return -1
}

// Reachable reports whether the entry reaches b.
func (d *Dominance) Reachable(b *Block) bool {
	i := d.at(b)
	return i >= 0 && d.dom.Reachable(i)
}

// Dominates reports whether a dominates b. An unreachable or unlisted block
// dominates only itself.
func (d *Dominance) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	i, j := d.at(a), d.at(b)
	return i >= 0 && j >= 0 && d.dom.Dominates(i, j)
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

// dominanceFrontiers returns each block's dominance frontier, indexed by
// Block.ID (Cooper-Harvey-Kennedy). Each list is sorted by ID, the order
// in which BuildSSA places phis, so value numbering is deterministic.
func (f *Function) dominanceFrontiers() [][]*Block {
	df := make([][]*Block, f.nextBlockID)
	for _, b := range f.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			for runner := p; runner != nil && runner != b.IDom; runner = runner.IDom {
				// b's appends all happen while b is current, so a
				// repeat would be the list's last entry.
				if fr := df[runner.ID]; len(fr) == 0 || fr[len(fr)-1] != b {
					df[runner.ID] = append(fr, b)
				}
				if runner.IDom == runner {
					break
				}
			}
		}
	}
	for _, fr := range df {
		sort.Slice(fr, func(i, j int) bool { return fr[i].ID < fr[j].ID })
	}
	return df
}
