package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// graph builds the successor and predecessor lists of n nodes from an edge
// list. An edge with a negative end leaves the graph: it is listed only at
// its other end, as a negative neighbour.
func graph(n int, edges [][2]int32) (succ, pred Adj) {
	succ, pred = NewAdj(n, len(edges)), NewAdj(n, len(edges))
	for v := int32(0); v < int32(n); v++ {
		for _, e := range edges {
			if e[0] == v {
				succ.Add(e[1])
			}
		}
		succ.End()
		for _, e := range edges {
			if e[1] == v {
				pred.Add(e[0])
			}
		}
		pred.End()
	}
	return succ, pred
}

// reaches returns which nodes the entry reaches along paths that avoid cut
// (-1 avoids nothing).
func reaches(succ Adj, entry, cut int32) []bool {
	seen := make([]bool, succ.Len())
	if entry < 0 || entry == cut {
		return seen
	}
	seen[entry] = true
	for stack := []int32{entry}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range succ.Of(v) {
			if w >= 0 && w != cut && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// refRPO is the reverse postorder of a recursive depth-first search that
// takes each node's successors in list order.
func refRPO(succ Adj, entry int32) []int32 {
	var post []int32
	if entry < 0 {
		return post
	}
	seen := make([]bool, succ.Len())
	var dfs func(int32)
	dfs = func(v int32) {
		seen[v] = true
		for _, w := range succ.Of(v) {
			if w >= 0 && !seen[w] {
				dfs(w)
			}
		}
		post = append(post, v)
	}
	dfs(entry)
	slices.Reverse(post)
	return post
}

// checkDominators compares Dominators with the definition: x dominates y iff
// x is y, or y is reachable and deleting x disconnects it from the entry.
func checkDominators(t testing.TB, succ, pred Adj, entry int32) {
	t.Helper()
	d := Dominators(succ, pred, entry)
	n := int32(succ.Len())
	if want := refRPO(succ, entry); !slices.Equal(d.Order, want) {
		t.Fatalf("Order %v, want reverse postorder %v", d.Order, want)
	}
	reach := reaches(succ, entry, -1)
	dom := make([][]bool, n)
	for x := int32(0); x < n; x++ {
		cut := reaches(succ, entry, x)
		dom[x] = make([]bool, n)
		for y := int32(0); y < n; y++ {
			dom[x][y] = x == y || (reach[y] && !cut[y])
		}
	}
	for y := int32(0); y < n; y++ {
		if d.Reachable(y) != reach[y] {
			t.Fatalf("Reachable(%d) = %v, want %v", y, d.Reachable(y), reach[y])
		}
		for x := int32(0); x < n; x++ {
			if got := d.Dominates(x, y); got != dom[x][y] {
				t.Fatalf("Dominates(%d, %d) = %v, want %v", x, y, got, dom[x][y])
			}
		}
		// The immediate dominator is the strict dominator that every other
		// strict dominator dominates.
		switch id := d.Idom[y]; {
		case !reach[y]:
			if id != -1 || d.Pre[y] != -1 || d.Post[y] != -1 {
				t.Fatalf("unreachable node %d has idom %d, interval [%d, %d]", y, id, d.Pre[y], d.Post[y])
			}
		case y == entry:
			if id != entry {
				t.Fatalf("entry's idom is %d", id)
			}
		default:
			if id == y || !dom[id][y] {
				t.Fatalf("idom(%d) = %d does not strictly dominate it", y, id)
			}
			for x := int32(0); x < n; x++ {
				if x != y && dom[x][y] && !dom[x][id] {
					t.Fatalf("idom(%d) = %d, but strict dominator %d does not dominate it", y, id, x)
				}
			}
		}
	}
}

var cases = []struct {
	name  string
	n     int
	edges [][2]int32
}{
	{"single node", 1, nil},
	{"diamond", 4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
	{"nested loops", 5, [][2]int32{{0, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 1}, {1, 4}}},
	{"self-loops", 2, [][2]int32{{0, 0}, {0, 1}, {1, 1}}},
	{"duplicate edges", 3, [][2]int32{{0, 1}, {0, 1}, {1, 2}, {1, 2}, {2, 1}, {2, 1}}},
	{"irreducible", 4, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {2, 3}}},
	{"unreachable", 4, [][2]int32{{0, 1}, {2, 1}, {3, 2}, {3, 3}}},
	{"edges leaving the graph", 3, [][2]int32{{0, -1}, {0, 1}, {-1, 1}, {1, 2}, {2, -1}}},
}

func TestDominatorsMatchOracle(t *testing.T) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			succ, pred := graph(c.n, c.edges)
			for entry := int32(-1); entry < int32(c.n); entry++ {
				checkDominators(t, succ, pred, entry)
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		succ, pred := graph(randomGraph(rng))
		checkDominators(t, succ, pred, int32(rng.Intn(succ.Len())))
	}
}

// randomGraph draws up to 8 nodes and up to 3 edges per node, self-loops,
// duplicates and unreachable nodes included.
func randomGraph(rng *rand.Rand) (int, [][2]int32) {
	n := 1 + rng.Intn(8)
	edges := make([][2]int32, rng.Intn(3*n+1))
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return n, edges
}

// FuzzDominators decodes bytes into a graph (the first byte picks the node
// count, the second the entry, each later pair an edge, some leaving the
// graph) and checks Dominators against the oracle.
func FuzzDominators(f *testing.F) {
	for _, c := range cases {
		b := []byte{byte(c.n - 1), 1} // c's graph, entered at node 0
		for _, e := range c.edges {
			if e[0] >= 0 {
				b = append(b, byte(e[0]), byte(e[1]+1))
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%12
		entry := int32(data[1])%int32(n+1) - 1
		var edges [][2]int32
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int32{int32(data[i]) % int32(n), int32(data[i+1])%int32(n+1) - 1})
		}
		succ, pred := graph(n, edges)
		checkDominators(t, succ, pred, entry)
	})
}

// liveAt reports whether r is live on entry to v by the path definition:
// some path from v reaches a use of r before any definition of it.
func liveAt(succ Adj, use, def []Set, v int32, r int) bool {
	seen := make([]bool, succ.Len())
	seen[v] = true
	for stack := []int32{v}; len(stack) > 0; {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if use[x].Has(r) {
			return true
		}
		if def[x].Has(r) {
			continue
		}
		for _, w := range succ.Of(x) {
			if w >= 0 && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

func TestBackwardMatchesPathOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(n int, edges [][2]int32, size int) {
		t.Helper()
		succ, _ := graph(n, edges)
		use, def := NewSets(n, size), NewSets(n, size)
		for v := 0; v < n; v++ {
			for r := 0; r < size; r++ {
				switch rng.Intn(8) {
				case 0:
					use[v].Add(r)
				case 1:
					def[v].Add(r)
				case 2:
					use[v].Add(r)
					def[v].Add(r)
				}
			}
		}
		in, out := Backward(succ, use, def)
		for v := int32(0); v < int32(n); v++ {
			for r := 0; r < size; r++ {
				wantIn, wantOut := liveAt(succ, use, def, v, r), false
				for _, w := range succ.Of(v) {
					wantOut = wantOut || (w >= 0 && liveAt(succ, use, def, w, r))
				}
				if in[v].Has(r) != wantIn || out[v].Has(r) != wantOut {
					t.Fatalf("%v: node %d reg %d: live in %v out %v, want %v %v",
						edges, v, r, in[v].Has(r), out[v].Has(r), wantIn, wantOut)
				}
			}
		}
	}
	for _, c := range cases {
		check(c.n, c.edges, 3)
	}
	for trial := 0; trial < 500; trial++ {
		n, edges := randomGraph(rng)
		// Sizes past one word exercise the multi-word sets.
		check(n, edges, 1+rng.Intn(70))
	}
}

func TestSetOps(t *testing.T) {
	s := NewSets(2, 130)[1]
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
	}
	s.Remove(63)
	if !s.Has(0) || s.Has(63) || !s.Has(64) || !s.Has(129) {
		t.Errorf("set after add/remove: %v", s)
	}
}
