package lir

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// phiWeb builds a function of n blocks whose phis read one another, and an
// instruction per block that uses every phi of its block. arg(i, k) picks
// the k-th input of block i's phi: another phi, or nil for the block's own
// phi (a self-reference). The blocks carry no edges: prunePhis reads only
// phi arguments.
func phiWeb(n, phisPer, args int, arg func(f *Function, phis [][]*Value, i, j, k int) *Value) *Function {
	f := &Function{Name: "web"}
	entry := f.NewBlock()
	x := f.NewValue(OpParam, TInt)
	entry.Append(x)
	f.Blocks = append(f.Blocks, entry)
	phis := make([][]*Value, n)
	for i := range phis {
		b := f.NewBlock()
		f.Blocks = append(f.Blocks, b)
		for j := 0; j < phisPer; j++ {
			p := f.NewValue(OpPhi, TInt)
			p.Block = b
			b.Phis = append(b.Phis, p)
			phis[i] = append(phis[i], p)
		}
	}
	for i, ps := range phis {
		for j, p := range ps {
			for k := 0; k < args; k++ {
				a := arg(f, phis, i, j, k)
				if a == nil {
					a = p
				}
				if a == f.Blocks[0].Insns[0] {
					a = x
				}
				p.Args = append(p.Args, a)
			}
		}
		b := f.Blocks[i+1]
		use := f.NewValue(OpAdd, TInt, append([]*Value{x}, ps...)...)
		b.Append(use)
		b.AppendRaw(f.NewValue(OpReturn, TVoid, use))
	}
	return f
}

func checkPruneMatchesEager(t *testing.T, label string, f *Function) {
	t.Helper()
	eager := Clone(f)
	PrunePhisEager(eager)
	prunePhis(f)
	if !SameIR(f, eager) || f.String() != eager.String() {
		t.Fatalf("%s: prunePhis left\n%s\nthe eager reference left\n%s", label, f, eager)
	}
}

// TestPrunePhisMatchesEager compares prunePhis with the eager reference on
// phi-to-phi chains in both block orders, self-loops, and random phi webs.
func TestPrunePhisMatchesEager(t *testing.T) {
	const n = 12
	x := func(f *Function) *Value { return f.Blocks[0].Insns[0] }
	// Chain forward: block i's phi reads block i-1's; block 0's reads x.
	checkPruneMatchesEager(t, "forward chain", phiWeb(n, 1, 2, func(f *Function, phis [][]*Value, i, _, k int) *Value {
		if k == 1 {
			return nil
		}
		if i == 0 {
			return x(f)
		}
		return phis[i-1][0]
	}))
	// Chain backward: block i's phi reads block i+1's, so each is trivial
	// only through phis the scan has not reached yet.
	checkPruneMatchesEager(t, "backward chain", phiWeb(n, 1, 2, func(f *Function, phis [][]*Value, i, _, k int) *Value {
		if k == 1 {
			return nil
		}
		if i == len(phis)-1 {
			return x(f)
		}
		return phis[i+1][0]
	}))
	// Backward chain whose last link is not trivial: a phi of x and another
	// phi, which pruning must keep, and every phi before it with it.
	checkPruneMatchesEager(t, "backward chain to a live phi", phiWeb(n, 2, 2, func(f *Function, phis [][]*Value, i, j, k int) *Value {
		switch {
		case j == 1:
			return x(f)
		case k == 1:
			return nil
		case i == len(phis)-1:
			return phis[i][1]
		}
		return phis[i+1][0]
	}))
	// Self-loops only: phi(p, p) has no input besides itself and stays;
	// phi(p, x) becomes x.
	checkPruneMatchesEager(t, "self-loops", phiWeb(n, 2, 2, func(f *Function, _ [][]*Value, _, j, k int) *Value {
		if j == 1 && k == 0 {
			return x(f)
		}
		return nil
	}))
	// Two phis that only read each other and themselves.
	checkPruneMatchesEager(t, "mutual pair", phiWeb(1, 2, 3, func(f *Function, phis [][]*Value, _, j, k int) *Value {
		if k == 2 {
			return nil
		}
		return phis[0][1-j]
	}))
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 500; seed++ {
		nb, per, args := 1+rng.Intn(6), 1+rng.Intn(4), 1+rng.Intn(3)
		consts := []*Value{}
		f := phiWeb(nb, per, args, func(f *Function, phis [][]*Value, _, _, _ int) *Value {
			switch r := rng.Intn(10); {
			case r < 3:
				return nil
			case r < 5:
				if len(consts) == 0 {
					c := f.NewValue(OpConstInt, TInt)
					f.Blocks[0].Append(c)
					consts = append(consts, c)
				}
				return consts[rng.Intn(len(consts))]
			default:
				i := rng.Intn(len(phis))
				if len(phis[i]) == 0 {
					return nil
				}
				return phis[i][rng.Intn(len(phis[i]))]
			}
		})
		checkPruneMatchesEager(t, fmt.Sprintf("random web %d", seed), f)
	}
}

// TestPrunePhisLinear checks that a chain of N trivial phis costs O(N)
// argument rewrites. The chain runs against the scan order and every phi
// has a use, so replacing each phi at once would rewrite the first use N
// times, the second N-1 times, and so on.
func TestPrunePhisLinear(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		f := phiWeb(n, 1, 2, func(f *Function, phis [][]*Value, i, _, k int) *Value {
			if k == 1 {
				return nil
			}
			if i == len(phis)-1 {
				return f.Blocks[0].Insns[0]
			}
			return phis[i+1][0]
		})
		work := prunePhis(f)
		if work > 4*n {
			t.Errorf("%d chained phis: %d argument rewrites and chain links, want at most %d", n, work, 4*n)
		}
		for _, b := range f.Blocks {
			if len(b.Phis) != 0 {
				t.Fatalf("%d chained phis: b%d keeps %d phis", n, b.ID, len(b.Phis))
			}
		}
	}
}

// TestNoWholeFunctionEditsInLoops fails when a pass calls ReplaceUses or
// removeValues, each a sweep over the whole function, inside a range loop
// or a counted loop (one with a post statement): such a loop walks blocks,
// values or the sites they hold, and one sweep per iteration makes the pass
// quadratic. Fixpoint loops (`for {`, `for changed := true; changed; {`)
// may sweep once per round. Loops record into a substitution and remove
// with removeFromBlock instead (edit.go).
func TestNoWholeFunctionEditsInLoops(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := ""
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				callee = fn.Name
			case *ast.SelectorExpr:
				callee = fn.Sel.Name
			}
			if callee != "ReplaceUses" && callee != "removeValues" {
				return true
			}
			checked++
			for i := len(stack) - 2; i >= 0; i-- {
				switch l := stack[i].(type) {
				case *ast.FuncDecl:
					return true
				case *ast.RangeStmt:
					t.Errorf("%s: %s inside a range loop", fset.Position(call.Pos()), callee)
					return true
				case *ast.ForStmt:
					if l.Post != nil {
						t.Errorf("%s: %s inside a counted loop", fset.Position(call.Pos()), callee)
						return true
					}
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("found no removeValues call to check; is the test running in internal/lir?")
	}
}

// TestNoRecomputeOnPassExit fails on a Recompute call in pass_*.go that ends
// a function or is followed directly by a return, alone or as the last
// statement of an if branch: the pipeline recomputes after every pass
// application, failed ones included (pipeline.go), so such a call repeats
// it. A pass recomputes only before it re-reads the analyses after its own
// CFG edit.
func TestNoRecomputeOnPassExit(t *testing.T) {
	files, err := filepath.Glob("pass_*.go")
	if err != nil {
		t.Fatal(err)
	}
	var endsInRecompute func(s ast.Stmt) bool
	endsInRecompute = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Recompute"
		case *ast.BlockStmt:
			return len(s.List) > 0 && endsInRecompute(s.List[len(s.List)-1])
		case *ast.IfStmt:
			return endsInRecompute(s.Body) || s.Else != nil && endsInRecompute(s.Else)
		}
		return false
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					list = n.Body.List
				}
			case *ast.FuncLit:
				list = n.Body.List
			}
			if k := len(list); k > 0 && endsInRecompute(list[k-1]) {
				t.Errorf("%s: Recompute as a function's last statement", fset.Position(list[k-1].Pos()))
			}
			var stmts []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				stmts = n.List
			case *ast.CaseClause:
				stmts = n.Body
			}
			for i := 0; i+1 < len(stmts); i++ {
				if _, ret := stmts[i+1].(*ast.ReturnStmt); ret && endsInRecompute(stmts[i]) {
					t.Errorf("%s: Recompute directly before a return", fset.Position(stmts[i].Pos()))
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("found no pass_*.go file to check; is the test running in internal/lir?")
	}
}
