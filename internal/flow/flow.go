// Package flow holds the one dominator-tree builder and the one
// backward-liveness solver of the repo's three compiler IRs. The paper runs
// two compilers over the same dex CFG, ART's HGraph-based baseline and the
// HGraph→LLVM backend (§2, §3.5), and both place GC checks at loop headers.
// The dex CFG (internal/hgraph), the SSA IR (internal/lir) and linear
// machine code (internal/machine) number their blocks densely and pass
// their edges in as an Adj. The package imports nothing from the repo.
package flow

// Adj holds a directed graph's adjacency lists over nodes 0..Len()-1, packed
// in one slice: node v's neighbours are to[at[v]:at[v+1]]. The analyses
// ignore a negative neighbour (an edge leaving the graph).
type Adj struct{ at, to []int32 }

// NewAdj returns an empty Adj with room for n nodes and m edges in one
// allocation. Fill it node by node: Add the node's neighbours, then End it.
func NewAdj(n, m int) Adj { return adjIn(make([]int32, n+1+m), n) }

// NewAdjPair returns two empty Adjs, a graph's successor and predecessor
// lists, each with room for n nodes and m edges, in one allocation.
func NewAdjPair(n, m int) (succ, pred Adj) {
	buf := make([]int32, 2*(n+1+m))
	half := n + 1 + m
	return adjIn(buf[:half:half], n), adjIn(buf[half:], n)
}

// adjIn lays an empty Adj over n nodes out in buf: the n+1 offsets first,
// the edges in the rest.
func adjIn(buf []int32, n int) Adj {
	return Adj{at: buf[: 1 : n+1], to: buf[n+1 : n+1 : len(buf)]}
}

// Add appends w to the neighbours of the node being filled.
func (a *Adj) Add(w int32) { a.to = append(a.to, w) }

// End closes the node being filled; the next Add starts the following node.
func (a *Adj) End() { a.at = append(a.at, int32(len(a.to))) }

// Len returns the number of nodes.
func (a Adj) Len() int { return len(a.at) - 1 }

// Of returns node v's neighbours.
func (a Adj) Of(v int32) []int32 { return a.to[a.at[v]:a.at[v+1]] }

// Dom is the dominator tree of the nodes a graph's entry reaches.
type Dom struct {
	// Order lists the reachable nodes in the reverse postorder of a
	// depth-first search that takes successors in list order, entry first.
	Order []int32
	// By node, -1 where the entry does not reach: the immediate dominator
	// (the entry's is itself), and the dominator tree's depth-first
	// numbering, Pre a node's own number and Post the last in its subtree,
	// so u dominates v iff Pre[u] <= Pre[v] <= Post[u].
	Idom, Pre, Post []int32
}

// Reachable reports whether the entry reaches v.
func (d *Dom) Reachable(v int32) bool { return d.Pre[v] >= 0 }

// Dominates reports whether u dominates v. A node the entry does not reach
// dominates only itself.
func (d *Dom) Dominates(u, v int32) bool {
	if u == v {
		return true
	}
	pu, pv := d.Pre[u], d.Pre[v]
	return pu >= 0 && pv >= 0 && pu <= pv && pv <= d.Post[u]
}

// Dominators computes the dominator tree rooted at entry of the graph with
// successor lists succ and predecessor lists pred, read as given, by Cooper,
// Harvey and Kennedy's iterative algorithm over a reverse postorder. A
// negative entry reaches nothing. All results share one allocation.
func Dominators(succ, pred Adj, entry int32) Dom {
	n := succ.Len()
	buf := make([]int32, 9*n)
	part := func() []int32 {
		p := buf[:n:n]
		buf = buf[n:]
		return p
	}
	order, stack, next := part()[:0], part()[:0], part()
	rpo, child, sibling := part(), part(), part()
	d := Dom{Idom: part(), Pre: part(), Post: part()}
	idom := d.Idom
	for i := 0; i < n; i++ {
		rpo[i], idom[i], child[i], sibling[i], d.Pre[i], d.Post[i] = -1, -1, -1, -1, -1, -1
	}
	if entry < 0 {
		d.Order = order
		return d
	}
	// Postorder by an iterative DFS from the entry; next[v] is v's
	// successor cursor and rpo[v] >= 0 marks a node the DFS reached.
	rpo[entry] = 0
	stack = append(stack, entry)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if succs := succ.Of(v); int(next[v]) < len(succs) {
			w := succs[next[v]]
			next[v]++
			if w >= 0 && rpo[w] < 0 {
				rpo[w] = 0
				stack = append(stack, w)
			}
			continue
		}
		order = append(order, v)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, v := range order {
		rpo[v] = int32(i)
	}
	idom[entry] = entry
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
		for _, v := range order[1:] {
			nd := int32(-1)
			for _, p := range pred.Of(v) {
				if p < 0 || idom[p] < 0 {
					continue
				}
				if nd < 0 {
					nd = p
				} else {
					nd = intersect(p, nd)
				}
			}
			if nd >= 0 && idom[v] != nd {
				idom[v] = nd
				changed = true
			}
		}
	}
	// Number the dominator tree: children as first-child/next-sibling
	// links, then an iterative DFS.
	for _, v := range order[1:] {
		p := idom[v]
		sibling[v], child[p] = child[p], v
	}
	clock := int32(0)
	d.Pre[entry] = clock
	stack = append(stack, entry)
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if c := child[top]; c >= 0 {
			child[top] = sibling[c]
			clock++
			d.Pre[c] = clock
			stack = append(stack, c)
			continue
		}
		d.Post[top] = clock
		stack = stack[:len(stack)-1]
	}
	d.Order = order
	return d
}

// Set is a dense bit set over small non-negative integers (registers).
type Set []uint64

// NewSets returns n empty sets over 0..size-1 sharing one backing array.
func NewSets(n, size int) []Set {
	words := (size + 63) / 64
	backing := make([]uint64, n*words)
	sets := make([]Set, n)
	for i := range sets {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}

// Has, Add and Remove test, insert and delete i.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s Set) Add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s Set) Remove(i int)   { s[i>>6] &^= 1 << (uint(i) & 63) }

// Backward solves the liveness equations over the successor lists succ,
// out[v] = ∪ in[w] over v's successors w and in[v] = use[v] ∪ (out[v] −
// def[v]), to their least fixpoint, and returns in and out per node. use
// and def hold one set per node, all of one size.
func Backward(succ Adj, use, def []Set) (in, out []Set) {
	n, size := succ.Len(), 0
	if n > 0 {
		size = 64 * len(use[0])
	}
	in, out = NewSets(n, size), NewSets(n, size)
	for changed := true; changed; {
		changed = false
		for v := n - 1; v >= 0; v-- {
			o := out[v]
			for _, w := range succ.Of(int32(v)) {
				if w < 0 {
					continue
				}
				for i, x := range in[w] {
					if nx := o[i] | x; nx != o[i] {
						o[i] = nx
						changed = true
					}
				}
			}
			iv, u, d := in[v], use[v], def[v]
			for i, x := range o {
				if nx := iv[i] | (x &^ d[i]) | u[i]; nx != iv[i] {
					iv[i] = nx
					changed = true
				}
			}
		}
	}
	return in, out
}
