package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// lintSrc writes src as a single-file package in a temp dir and lints it.
func lintSrc(t *testing.T, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	findings, err := New().LintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func rules(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func TestTimeNow(t *testing.T) {
	fs := lintSrc(t, `package p

import "time"

func f() time.Time { return time.Now() }

// Other time functions are fine.
func g() time.Duration { return time.Second }
`)
	if len(fs) != 1 || fs[0].Rule != RuleTimeNow {
		t.Fatalf("want one %s finding, got %v", RuleTimeNow, fs)
	}
}

func TestTimeNowRenamedImport(t *testing.T) {
	fs := lintSrc(t, `package p

import clock "time"

func f() clock.Time { return clock.Now() }
`)
	if len(fs) != 1 || fs[0].Rule != RuleTimeNow {
		t.Fatalf("renamed import: want one %s finding, got %v", RuleTimeNow, fs)
	}
}

func TestTimeNowLocalShadow(t *testing.T) {
	// A local variable named "time" is not the time package.
	fs := lintSrc(t, `package p

type ticker struct{}

func (ticker) Now() int { return 0 }

func f() int {
	time := ticker{}
	return time.Now()
}
`)
	if len(fs) != 0 {
		t.Fatalf("local shadow flagged: %v", fs)
	}
}

func TestMathRand(t *testing.T) {
	fs := lintSrc(t, `package p

import "math/rand"

func f() int { return rand.Intn(10) }

// Seeded generators are explicitly allowed.
func g() int { return rand.New(rand.NewSource(1)).Intn(10) }
`)
	if len(fs) != 1 || fs[0].Rule != RuleMathRand {
		t.Fatalf("want one %s finding, got %v", RuleMathRand, fs)
	}
}

func TestMapRange(t *testing.T) {
	fs := lintSrc(t, `package p

func f(m map[string]int, xs []int) int {
	s := 0
	for _, v := range m { // finding: map parameter
		s += v
	}
	for _, v := range xs { // slice: fine
		s += v
	}
	local := map[int]int{}
	for k := range local { // finding: composite literal
		s += k
	}
	made := make(map[int]bool)
	for k := range made { // finding: make(map...)
		if k > 0 {
			s++
		}
	}
	alias := made
	for range alias { // finding: := chain to a map
		s++
	}
	return s
}
`)
	got := rules(fs)
	if len(got) != 4 {
		t.Fatalf("want 4 %s findings, got %v: %v", RuleMapRange, got, fs)
	}
	for _, r := range got {
		if r != RuleMapRange {
			t.Fatalf("unexpected rule %s in %v", r, fs)
		}
	}
}

func TestMapRangeNamedTypeAndFields(t *testing.T) {
	fs := lintSrc(t, `package p

type Registry map[string]int

type Prog struct {
	Fns   Registry
	Names []string
}

func f(p Prog, r Registry) int {
	s := 0
	for _, v := range p.Fns { // finding: struct field of named map type
		s += v
	}
	for _, v := range r { // finding: parameter of named map type
		s += v
	}
	for range p.Names { // slice field: fine
		s++
	}
	return s
}
`)
	if got := rules(fs); len(got) != 2 {
		t.Fatalf("want 2 %s findings, got %v", RuleMapRange, fs)
	}
}

func TestSliceRangeNotFlagged(t *testing.T) {
	// The false positives that motivated precise local resolution: slices with
	// names that collide with map-typed fields elsewhere must stay clean.
	fs := lintSrc(t, `package p

type Other struct {
	Genes map[string]int
}

type Genome struct {
	Genes []int
}

func f(g Genome) int {
	s := 0
	for _, v := range g.Genes { // name collides with Other.Genes — known limit
		s += v
	}
	ids := []int{1, 2, 3}
	for _, id := range ids {
		s += id
	}
	kept := ids
	for _, id := range kept {
		s += id
	}
	return s
}
`)
	// The selector g.Genes is a name-based fallback and is expected to
	// (over-approximately) flag; the locals must not.
	for _, f := range fs {
		if f.Pos.Line != 13 {
			t.Fatalf("local slice range flagged at line %d: %v", f.Pos.Line, f)
		}
	}
}

func TestWaiver(t *testing.T) {
	fs := lintSrc(t, `package p

import "time"

func f(m map[string]int) int64 {
	s := int64(0)
	//detlint:allow map-range — keyed sum, order-insensitive
	for _, v := range m {
		s += int64(v)
	}
	s += time.Now().Unix() //detlint:allow time-now — fixture
	return s
}
`)
	if len(fs) != 0 {
		t.Fatalf("waived sites still flagged: %v", fs)
	}
}

func TestWaiverWrongRule(t *testing.T) {
	// A waiver names its rule; a mismatched rule does not silence the finding.
	fs := lintSrc(t, `package p

func f(m map[string]int) int {
	s := 0
	//detlint:allow time-now
	for _, v := range m {
		s += v
	}
	return s
}
`)
	if len(fs) != 1 || fs[0].Rule != RuleMapRange {
		t.Fatalf("mismatched waiver silenced the finding: %v", fs)
	}
}

func TestTestFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

func f() time.Time { return time.Now() }
`
	if err := os.WriteFile(filepath.Join(dir, "x_test.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	fs, err := New().LintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("_test.go linted: %v", fs)
	}
}

// TestRepoClean is the enforcement test: the deterministic packages must lint
// clean (every remaining site carries an explicit, justified waiver). It is
// the linter's one entry point; go test ./... runs it.
func TestRepoClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	l := New()
	for _, d := range []string{"internal/lir", "internal/machine", "internal/capture", "internal/obs", "internal/dex"} {
		if err := l.IndexDir(filepath.Join(root, d)); err != nil {
			t.Fatal(err)
		}
	}
	targets := []string{"internal/core", "internal/ga", "internal/replay", "internal/sa", "internal/schema"}
	for _, d := range targets {
		if err := l.IndexDir(filepath.Join(root, d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range targets {
		findings, err := l.LintDir(filepath.Join(root, d))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}
