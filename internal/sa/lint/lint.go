// Package lint is a stdlib-only determinism linter for the replay-critical
// packages (internal/ga, internal/core, internal/replay, internal/sa,
// internal/schema). The
// §3.6 search and §3.4 verification contracts require candidate evaluation to
// be a pure function of its inputs; three Go-level habits silently break
// that, and this linter forbids them:
//
//   - time-now: calling time.Now — wall-clock reads make results
//     run-dependent. (The pipeline's virtual clock lives in internal/device.)
//   - math-rand: calling package-level math/rand functions, which draw from
//     the global, unseeded source. Seeded rand.New(rand.NewSource(...))
//     generators are fine.
//   - map-range: ranging over a map, whose iteration order changes between
//     runs. Collect-and-sort first, or waive the site.
//
// A site that is genuinely order-insensitive (or observability-only) is
// waived with a comment on the statement's line or the line above:
//
//	//detlint:allow map-range — keyed writes, order-insensitive
//
// The linter is syntactic: it has no type checker (golang.org/x/tools is
// unavailable here). Map detection resolves local variables precisely through
// the parser's object chains (declarations, := assignments, parameters) and
// falls back to names only where syntax cannot reach: selector fields match
// struct fields declared with a map type anywhere in the indexed sources, and
// bare identifiers with no local object match package-level map variables.
// Index reference packages (internal/lir, internal/machine, ...) first so
// cross-package fields like machine.Program.Fns resolve.
//
// TestRepoClean runs the linter over those packages under go test ./...;
// the waiver comment keeps the //detlint: spelling of the command-line tool
// it once had.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Rules.
const (
	RuleTimeNow  = "time-now"
	RuleMathRand = "math-rand"
	RuleMapRange = "map-range"
)

// Finding is one determinism violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// globalRandFuncs are the package-level math/rand draws (all read the global
// source). Constructors (New, NewSource, NewZipf) are allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// Linter accumulates a cross-package map-type index and lints files against
// it.
type Linter struct {
	fset *token.FileSet
	// structMapFields holds struct field names declared with a map type
	// anywhere in the indexed sources (name-based: no type checker).
	structMapFields map[string]bool
	// pkgMapVars holds package-level variable names of map type.
	pkgMapVars map[string]bool
	// mapTypes holds named types defined as maps ("type Registry map[K]V").
	mapTypes map[string]bool
}

// New returns an empty linter.
func New() *Linter {
	return &Linter{
		fset:            token.NewFileSet(),
		structMapFields: map[string]bool{},
		pkgMapVars:      map[string]bool{},
		mapTypes:        map[string]bool{},
	}
}

// parseDir parses every non-test .go file in dir.
func (l *Linter) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// IndexDir records dir's named map types and map-typed struct fields and
// package variables without linting it. Index reference packages before
// linting packages that range over their fields.
func (l *Linter) IndexDir(dir string) error {
	files, err := l.parseDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		l.indexFile(f)
	}
	return nil
}

func (l *Linter) indexFile(f *ast.File) {
	// Named map types and struct fields of map type, anywhere in the file.
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.TypeSpec:
			if l.isMapType(d.Type) {
				l.mapTypes[d.Name.Name] = true
			}
		case *ast.StructType:
			for _, field := range d.Fields.List {
				if l.isMapType(field.Type) {
					for _, name := range field.Names {
						l.structMapFields[name.Name] = true
					}
				}
			}
		}
		return true
	})
	// Package-level map variables (top-level declarations only — function
	// locals resolve through object chains instead).
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			isMap := vs.Type != nil && l.isMapType(vs.Type)
			for i, name := range vs.Names {
				if isMap || (i < len(vs.Values) && l.isMapExpr(vs.Values[i], 0)) {
					l.pkgMapVars[name.Name] = true
				}
			}
		}
	}
}

// isMapType reports whether a type expression is (or names) a map type.
func (l *Linter) isMapType(t ast.Expr) bool {
	switch t := t.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return l.mapTypes[t.Name]
	case *ast.SelectorExpr:
		return l.mapTypes[t.Sel.Name]
	case *ast.StarExpr:
		return l.isMapType(t.X)
	}
	return false
}

// isMapExpr reports whether a value expression evaluates to a map. Local
// identifiers resolve through the parser's object chain to their declaration
// (value spec, := assignment, or parameter); identifiers without a local
// object fall back to the package-level map-variable names, and selector
// expressions to the indexed struct-field names. depth bounds chains like
// m2 := m1.
func (l *Linter) isMapExpr(e ast.Expr, depth int) bool {
	if depth > 10 {
		return false
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return l.isMapExpr(e.X, depth+1)
	case *ast.CompositeLit:
		return l.isMapType(e.Type)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			return l.isMapType(e.Args[0])
		}
	case *ast.Ident:
		if e.Obj == nil {
			return l.pkgMapVars[e.Name]
		}
		switch d := e.Obj.Decl.(type) {
		case *ast.ValueSpec:
			if d.Type != nil {
				return l.isMapType(d.Type)
			}
			for i, name := range d.Names {
				if name.Name == e.Name && i < len(d.Values) {
					return l.isMapExpr(d.Values[i], depth+1)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != e.Name {
					continue
				}
				if len(d.Rhs) == len(d.Lhs) {
					return l.isMapExpr(d.Rhs[i], depth+1)
				}
				return false // multi-value call: unknowable without types
			}
		case *ast.Field:
			return l.isMapType(d.Type)
		}
	case *ast.SelectorExpr:
		return l.structMapFields[e.Sel.Name]
	}
	return false
}

// LintDir indexes dir and then checks its non-test files.
func (l *Linter) LintDir(dir string) ([]Finding, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	return l.lintFiles(files)
}

func (l *Linter) lintFiles(files []*ast.File) ([]Finding, error) {
	// Two passes: the lint targets' own declarations join the index first so
	// intra-package fields resolve regardless of file order.
	for _, f := range files {
		l.indexFile(f)
	}
	var out []Finding
	for _, f := range files {
		out = append(out, l.lintFile(f)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Offset < out[j].Pos.Offset
	})
	return out, nil
}

func (l *Linter) lintFile(f *ast.File) []Finding {
	timeName, randName := "", ""
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch path {
		case "time":
			timeName = "time"
			if name != "" {
				timeName = name
			}
		case "math/rand":
			randName = "rand"
			if name != "" {
				randName = name
			}
		}
	}

	// Waivers: any comment line containing "detlint:allow <rule>" waives that
	// rule on its own line and the line below.
	waived := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, "detlint:allow")
			if idx < 0 {
				continue
			}
			line := l.fset.Position(c.Pos()).Line
			rest := c.Text[idx+len("detlint:allow"):]
			for _, rule := range []string{RuleTimeNow, RuleMathRand, RuleMapRange} {
				if strings.Contains(rest, rule) {
					for _, ln := range []int{line, line + 1} {
						if waived[ln] == nil {
							waived[ln] = map[string]bool{}
						}
						waived[ln][rule] = true
					}
				}
			}
		}
	}

	var out []Finding
	report := func(n ast.Node, rule, msg string) {
		pos := l.fset.Position(n.Pos())
		if waived[pos.Line][rule] {
			return
		}
		out = append(out, Finding{Pos: pos, Rule: rule, Message: msg})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Obj != nil { // Obj != nil: a local variable, not a package
				return true
			}
			if timeName != "" && pkg.Name == timeName && sel.Sel.Name == "Now" {
				report(n, RuleTimeNow,
					"wall-clock read; use the device virtual clock or waive observability-only timing")
			}
			if randName != "" && pkg.Name == randName && globalRandFuncs[sel.Sel.Name] {
				report(n, RuleMathRand,
					"draw from the global math/rand source; use a seeded rand.New(rand.NewSource(...))")
			}
		case *ast.RangeStmt:
			if l.isMapExpr(n.X, 0) {
				report(n, RuleMapRange,
					"map iteration order varies between runs; collect and sort keys, or waive an order-insensitive site")
			}
		}
		return true
	})
	return out
}
