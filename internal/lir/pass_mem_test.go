package lir

import (
	"testing"

	"replayopt/internal/minic"
)

func ssaOf(t *testing.T, src, fn string) *Function {
	t.Helper()
	prog, err := minic.CompileSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := prog.MethodByName(fn)
	if !ok {
		t.Fatalf("no method %s", fn)
	}
	f, err := BuildSSA(prog, id)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func countOp(f *Function, op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op == op {
				n++
			}
		}
	}
	return n
}

func TestStoreForwardEliminatesReload(t *testing.T) {
	f := ssaOf(t, `
global int[] a;
func f(int i, int v) int {
	a[i] = v;
	return a[i] + a[i];
}
func main() int { a = new int[8]; return f(1, 5); }`, "f")
	if err := RunPassForTest(f, "storeforward", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpArrLoad); n != 0 {
		t.Errorf("%d array loads survived forwarding", n)
	}
	if n := countOp(f, OpArrStore); n != 1 {
		t.Errorf("store count %d", n)
	}
	if err := VerifyIR(f); err != nil {
		t.Fatal(err)
	}
}

func TestStoreForwardInvalidatedByCall(t *testing.T) {
	f := ssaOf(t, `
global int[] a;
func g() { a[0] = 9; }
func f(int i, int v) int {
	a[i] = v;
	g();
	return a[i];
}
func main() int { a = new int[8]; return f(0, 5); }`, "f")
	if err := RunPassForTest(f, "storeforward", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpArrLoad); n != 1 {
		t.Errorf("load across a call was forwarded (%d loads)", n)
	}
}

func TestDSERemovesOverwrittenStore(t *testing.T) {
	// The array arrives as a parameter so both stores see the same SSA
	// base (global bases are distinct loads until storeforward unifies
	// them — see the pipeline tests).
	f := ssaOf(t, `
func f(int[] arr, int i) {
	arr[i] = 1;
	arr[i] = 2;
}
func main() int { int[] a = new int[8]; f(a, 3); return a[3]; }`, "f")
	if err := RunPassForTest(f, "dse", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpArrStore); n != 1 {
		t.Errorf("%d stores survived DSE, want 1", n)
	}
}

func TestDSEAfterStoreForwardOnGlobals(t *testing.T) {
	f := ssaOf(t, `
global int[] a;
func f(int i) {
	a[i] = 1;
	a[i] = 2;
}
func main() int { a = new int[8]; f(3); return a[3]; }`, "f")
	if err := RunPassForTest(f, "storeforward", nil); err != nil {
		t.Fatal(err)
	}
	if err := RunPassForTest(f, "dse", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpArrStore); n != 1 {
		t.Errorf("%d stores survived storeforward+dse, want 1", n)
	}
}

func TestDSEKeepsStoreReadByAliasedLoad(t *testing.T) {
	f := ssaOf(t, `
global int[] a;
func f(int i, int j) int {
	a[i] = 1;
	int x = a[j]; // may alias a[i]
	a[i] = 2;
	return x;
}
func main() int { a = new int[8]; return f(1, 1); }`, "f")
	if err := RunPassForTest(f, "dse", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpArrStore); n != 2 {
		t.Errorf("safe DSE removed an observed store (%d left)", n)
	}
	// The alias-blind variant deletes it — that is its bug.
	f2 := ssaOf(t, `
global int[] a;
func f(int i, int j) int {
	a[i] = 1;
	int x = a[j];
	a[i] = 2;
	return x;
}
func main() int { a = new int[8]; return f(1, 1); }`, "f")
	if err := RunPassForTest(f2, "dse", map[string]int{"alias-blind": 1}); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f2, OpArrStore); n != 1 {
		t.Errorf("alias-blind DSE kept %d stores; its bug should remove one", n)
	}
}

func TestLICMHoistsInvariantExpression(t *testing.T) {
	f := ssaOf(t, `
func f(int n, int k) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) {
		s = s + k * k;
	}
	return s;
}
func main() int { return f(10, 3); }`, "f")
	if err := RunPassForTest(f, "licm", nil); err != nil {
		t.Fatal(err)
	}
	f.Recompute()
	loops := f.Loops()
	if len(loops) != 1 {
		t.Fatalf("%d loops", len(loops))
	}
	for _, b := range loops[0].Blocks {
		for _, v := range b.Insns {
			if v.Op == OpMul {
				t.Error("invariant multiply still inside the loop")
			}
		}
	}
}

func TestBCERemovesCanonicalChecks(t *testing.T) {
	f := ssaOf(t, `
global int[] a;
func f() int {
	int s = 0;
	for (int i = 0; i < len(a); i = i + 1) { s = s + a[i]; }
	return s;
}
func main() int { a = new int[16]; return f(); }`, "f")
	before := countOp(f, OpBoundsCheck)
	if before == 0 {
		t.Fatal("no checks to start with")
	}
	if err := RunPassForTest(f, "bce", nil); err != nil {
		t.Fatal(err)
	}
	if after := countOp(f, OpBoundsCheck); after != 0 {
		t.Errorf("%d checks survived the canonical len-bound loop", after)
	}
}

func TestBCEKeepsUnprovableChecks(t *testing.T) {
	f := ssaOf(t, `
global int[] a;
func f(int i) int { return a[i]; }
func main() int { a = new int[16]; return f(3); }`, "f")
	if err := RunPassForTest(f, "bce", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpBoundsCheck); n != 1 {
		t.Errorf("unprovable check removed (%d left)", n)
	}
	// aggressive mode drops it.
	f2 := ssaOf(t, `
global int[] a;
func f(int i) int { return a[i]; }
func main() int { a = new int[16]; return f(3); }`, "f")
	if err := RunPassForTest(f2, "bce", map[string]int{"aggressive": 1}); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f2, OpBoundsCheck); n != 0 {
		t.Errorf("aggressive BCE left %d checks", n)
	}
}

func TestIntrinsicsReplaceJNI(t *testing.T) {
	f := ssaOf(t, `
func f(float x) float { return sqrt(x) + sin(x); }
func main() int { return ftoi(f(4.0)); }`, "f")
	if n := countOp(f, OpCallNative); n != 2 {
		t.Fatalf("%d native calls", n)
	}
	if err := RunPassForTest(f, "intrinsics", nil); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, OpCallNative); n != 0 {
		t.Errorf("%d native calls survived", n)
	}
	if n := countOp(f, OpIntrinsic); n != 2 {
		t.Errorf("%d intrinsics", n)
	}
}
