package lir

import "math"

// Clone deep-copies a function: fresh Blocks and Values with the same IDs,
// ops, types, and wiring, sharing only the immutable Prog. The copy carries
// the ID counters and the analysis caches (IDom, rpo, the dominator-tree
// numbering, and Recompute's CFG stamp), so a pass run on it behaves exactly
// as on the original.
func Clone(f *Function) *Function {
	var c Cloner
	return c.Clone(f)
}

// Cloner holds a clone's storage: every Block, Value, and pointer list of
// one copy lives in a few slices. The zero Cloner is ready to use; each
// Clone overwrites the storage of the previous one, so a Cloner suits a
// caller whose copy is dead before it clones again (tv's per-pass snapshot).
type Cloner struct {
	blocks []Block
	vals   []Value
	vptrs  []*Value // phi and instruction lists, then argument lists
	bptrs  []*Block // Blocks, then successor and predecessor lists
	stamp  []int32
	vmap   idMap[*Value]
	bmap   idMap[*Block]
}

// Clone copies f into c's storage.
func (c *Cloner) Clone(f *Function) *Function {
	nvals, nargs, nedges, maxV, maxB := 0, 0, 0, -1, -1
	for _, b := range f.Blocks {
		maxB = max(maxB, b.ID)
		nedges += len(b.Succs) + len(b.Preds)
		for _, vs := range [2][]*Value{b.Phis, b.Insns} {
			nvals += len(vs)
			for _, v := range vs {
				nargs += len(v.Args)
				maxV = max(maxV, v.ID)
			}
		}
	}
	c.blocks = reuse(c.blocks, len(f.Blocks))
	c.vals = reuse(c.vals, nvals)
	c.vptrs = reuse(c.vptrs, nvals+nargs)
	c.bptrs = reuse(c.bptrs, len(f.Blocks)+nedges)
	c.stamp = append(c.stamp[:0], f.stamp...)
	c.vmap.reset(maxV + 1)
	c.bmap.reset(maxB + 1)
	vals, vptrs, bptrs := c.vals, c.vptrs, c.bptrs
	take := func(n int) []*Value {
		out := vptrs[:n:n]
		vptrs = vptrs[n:]
		return out
	}
	takeB := func(n int) []*Block {
		out := bptrs[:n:n]
		bptrs = bptrs[n:]
		return out
	}

	out := &Function{
		Prog: f.Prog, Method: f.Method, Name: f.Name, Blocks: takeB(len(f.Blocks)),
		nextValueID: f.nextValueID, nextBlockID: f.nextBlockID,
		stamp: c.stamp[:len(c.stamp):len(c.stamp)],
	}
	for i, b := range f.Blocks {
		c.blocks[i] = Block{ID: b.ID, rpo: b.rpo, domPre: b.domPre, domPost: b.domPost}
		out.Blocks[i] = &c.blocks[i]
		c.bmap.put(b, b.ID, &c.blocks[i])
	}
	cloneList := func(vs []*Value, nb *Block) []*Value {
		if len(vs) == 0 {
			return nil
		}
		list := take(len(vs))
		for i, v := range vs {
			nv := &vals[0]
			vals = vals[1:]
			*nv = Value{
				ID: v.ID, Op: v.Op, Type: v.Type, Block: nb,
				Imm: v.Imm, F: v.F, Sym: v.Sym, Slot: v.Slot, Cond: v.Cond, Hint: v.Hint,
				NoTrap: v.NoTrap,
			}
			list[i] = nv
			c.vmap.put(v, v.ID, nv) // a value listed twice maps to its last copy
		}
		return list
	}
	// A successor, predecessor, or immediate dominator outside the function
	// maps to nil.
	cloneEdges := func(bs []*Block) []*Block {
		if len(bs) == 0 {
			return nil
		}
		list := takeB(len(bs))
		for i, b := range bs {
			list[i], _ = c.bmap.get(b, b.ID)
		}
		return list
	}
	for i, b := range f.Blocks {
		nb := &c.blocks[i]
		nb.Phis = cloneList(b.Phis, nb)
		nb.Insns = cloneList(b.Insns, nb)
		nb.Succs = cloneEdges(b.Succs)
		nb.Preds = cloneEdges(b.Preds)
		if b.IDom != nil {
			nb.IDom, _ = c.bmap.get(b.IDom, b.IDom.ID)
		}
	}
	// Second pass: rewire arguments through the value map. An argument whose
	// definition is outside every block (malformed IR) keeps the original
	// pointer; VerifyIR reports that separately.
	fix := func(v *Value) {
		if len(v.Args) == 0 {
			return
		}
		nv, _ := c.vmap.get(v, v.ID)
		nv.Args = take(len(v.Args))
		for i, a := range v.Args {
			if na, ok := c.vmap.get(a, idOf(a)); ok {
				nv.Args[i] = na
			} else {
				nv.Args[i] = a
			}
		}
	}
	for _, b := range f.Blocks {
		for _, p := range b.Phis {
			fix(p)
		}
		for _, v := range b.Insns {
			fix(v)
		}
	}
	return out
}

// SameIR reports whether a and b are the same IR as HashFunction sees it:
// the same block order and IDs, and per block the same phis and
// instructions (every field HashFunction reads, arguments by ID) and the
// same successor and predecessor IDs. Like the hash it ignores the analysis
// caches, the ID counters, and which pointer an ID names, so Clone(f) is the
// same IR as f. It allocates nothing.
func SameIR(a, b *Function) bool {
	if len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i, x := range a.Blocks {
		y := b.Blocks[i]
		if x.ID != y.ID || !sameValues(x.Phis, y.Phis) || !sameValues(x.Insns, y.Insns) ||
			!sameEdges(x.Succs, y.Succs) || !sameEdges(x.Preds, y.Preds) {
			return false
		}
	}
	return true
}

func sameValues(xs, ys []*Value) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i, x := range xs {
		y := ys[i]
		if x.ID != y.ID || x.Op != y.Op || x.Type != y.Type || x.Imm != y.Imm ||
			math.Float64bits(x.F) != math.Float64bits(y.F) || x.Sym != y.Sym || x.Slot != y.Slot ||
			x.Cond != y.Cond || x.Hint != y.Hint || x.NoTrap != y.NoTrap || len(x.Args) != len(y.Args) {
			return false
		}
		for j, a := range x.Args {
			if idOf(a) != idOf(y.Args[j]) {
				return false
			}
		}
	}
	return true
}

func sameEdges(xs, ys []*Block) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i, x := range xs {
		if blockID(x) != blockID(ys[i]) {
			return false
		}
	}
	return true
}

// idOf tolerates the nil argument of malformed IR.
func idOf(v *Value) int {
	if v == nil {
		return -1
	}
	return v.ID
}

// reuse returns a slice of length n over s's storage when it fits; the
// caller overwrites every element.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// idMap maps IR objects to their copies by ID. An object whose ID is
// negative or already names another object (malformed IR) spills into a
// map, so every pointer keeps its own entry.
type idMap[K comparable] struct {
	keys, vals []K
	spill      map[K]K
}

func (m *idMap[K]) reset(n int) {
	if cap(m.keys) < n {
		m.keys = make([]K, n)
	} else {
		m.keys = m.keys[:n]
		clear(m.keys)
	}
	m.vals = reuse(m.vals, n)
	clear(m.spill)
}

func (m *idMap[K]) put(k K, id int, v K) {
	var zero K
	if id >= 0 && id < len(m.keys) && (m.keys[id] == zero || m.keys[id] == k) {
		m.keys[id], m.vals[id] = k, v
		return
	}
	if m.spill == nil {
		m.spill = map[K]K{}
	}
	m.spill[k] = v
}

func (m *idMap[K]) get(k K, id int) (K, bool) {
	if id >= 0 && id < len(m.keys) && m.keys[id] == k {
		return m.vals[id], true
	}
	v, ok := m.spill[k]
	return v, ok
}
