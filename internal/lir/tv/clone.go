package tv

import "replayopt/internal/lir"

// Clone deep-copies a function: fresh Blocks and Values with the same IDs,
// ops, types, and wiring, sharing only the immutable Prog. Analysis caches
// (IDom and the dominator-tree numbering) and the block-ID counter are not
// copied; the validator reads dominators through lir.DominanceOf, which sizes
// its tables from the largest block ID.
func Clone(f *lir.Function) *lir.Function {
	var c cloner
	return c.clone(f)
}

// cloner holds a clone's storage: every Block, Value, and pointer list of
// one copy lives in a few slices, which the next clone overwrites.
type cloner struct {
	blocks []lir.Block
	vals   []lir.Value
	vptrs  []*lir.Value // phi and instruction lists, then argument lists
	bptrs  []*lir.Block // Blocks, then successor and predecessor lists
	vmap   idMap[*lir.Value]
	bmap   idMap[*lir.Block]
}

func (c *cloner) clone(f *lir.Function) *lir.Function {
	nvals, nargs, nedges, maxV, maxB := 0, 0, 0, -1, -1
	for _, b := range f.Blocks {
		maxB = max(maxB, b.ID)
		nedges += len(b.Succs) + len(b.Preds)
		for _, vs := range [2][]*lir.Value{b.Phis, b.Insns} {
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
	c.vmap.reset(maxV + 1)
	c.bmap.reset(maxB + 1)
	vals, vptrs, bptrs := c.vals, c.vptrs, c.bptrs
	take := func(n int) []*lir.Value {
		out := vptrs[:n:n]
		vptrs = vptrs[n:]
		return out
	}
	takeB := func(n int) []*lir.Block {
		out := bptrs[:n:n]
		bptrs = bptrs[n:]
		return out
	}

	out := &lir.Function{Prog: f.Prog, Method: f.Method, Name: f.Name, Blocks: takeB(len(f.Blocks))}
	for i, b := range f.Blocks {
		c.blocks[i] = lir.Block{ID: b.ID}
		out.Blocks[i] = &c.blocks[i]
		c.bmap.put(b, b.ID, &c.blocks[i])
	}
	cloneList := func(vs []*lir.Value, nb *lir.Block) []*lir.Value {
		if len(vs) == 0 {
			return nil
		}
		list := take(len(vs))
		for i, v := range vs {
			nv := &vals[0]
			vals = vals[1:]
			*nv = lir.Value{
				ID: v.ID, Op: v.Op, Type: v.Type, Block: nb,
				Imm: v.Imm, F: v.F, Sym: v.Sym, Slot: v.Slot, Cond: v.Cond, Hint: v.Hint,
				NoTrap: v.NoTrap,
			}
			list[i] = nv
			c.vmap.put(v, v.ID, nv) // a value listed twice maps to its last copy
		}
		return list
	}
	// A successor or predecessor outside the function maps to nil.
	cloneEdges := func(bs []*lir.Block) []*lir.Block {
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
	}
	// Second pass: rewire arguments through the value map. An argument whose
	// definition is outside every block (malformed IR) keeps the original
	// pointer; VerifyIR reports that separately.
	fix := func(v *lir.Value) {
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

// idOf tolerates the nil argument of malformed IR.
func idOf(v *lir.Value) int {
	if v == nil {
		return -1
	}
	return v.ID
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
	m.keys, m.vals = resize(m.keys, n), reuse(m.vals, n)
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
