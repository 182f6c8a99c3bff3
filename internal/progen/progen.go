// Package progen generates random — but always terminating and trap-free —
// minic programs for differential testing: every generated program must
// compute the same result interpreted and compiled under any safe
// optimization pipeline. The generator is the compiler stack's fuzzer:
// any interpreter/compiler divergence it finds is a Fig. 1 wrong-output
// outcome caught without spending a replay.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated program.
type Config struct {
	Funcs     int // helper functions (≥1)
	MaxDepth  int // expression depth
	MaxStmts  int // statements per block
	LoopIters int // loop trip counts are in [1, LoopIters]
	ArrayLen  int // global array length
}

// Default returns a medium-size configuration.
func Default() Config {
	return Config{Funcs: 3, MaxDepth: 3, MaxStmts: 5, LoopIters: 7, ArrayLen: 24}
}

type gen struct {
	rng *rand.Rand
	cfg Config
	b   strings.Builder
	// in-scope int and float variable names
	ints   []string
	floats []string
	indent int
	// funcs generated so far: name -> arity (int params only)
	funcs []string
	depth int
	// loopDepth bounds work: helper calls are only emitted outside nested
	// loops so generated programs stay fast to execute.
	loopDepth int
	// vars numbers fresh variable names, so a program depends on its seed
	// alone.
	vars int
}

// Generate produces one random program.
func Generate(rng *rand.Rand, cfg Config) string {
	g := &gen{rng: rng, cfg: cfg}
	g.line("global int[] gia;")
	g.line("global float[] gfa;")
	g.line("global int gcount;")
	for i := 0; i < cfg.Funcs; i++ {
		g.genFunc(fmt.Sprintf("f%d", i))
	}
	g.genMain()
	return g.b.String()
}

func (g *gen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// intExpr generates an int expression from in-scope ints.
func (g *gen) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if len(g.ints) > 0 && g.rng.Intn(3) > 0 {
			return g.pick(g.ints)
		}
		return fmt.Sprintf("%d", g.rng.Intn(40)-10)
	}
	a := g.intExpr(depth - 1)
	b := g.intExpr(depth - 1)
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		// Trap-free division: |b| % k + 1 is never zero.
		return fmt.Sprintf("(%s / (absi(%s) %% 13 + 1))", a, b)
	case 4:
		return fmt.Sprintf("(%s %% (absi(%s) %% 17 + 2))", a, b)
	case 5:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	case 6:
		return fmt.Sprintf("(%s & %s)", a, b)
	case 7:
		return fmt.Sprintf("gia[%s]", g.index(a))
	default:
		return fmt.Sprintf("mini(%s, %s)", a, b)
	}
}

// index wraps an int expression into a guaranteed in-bounds index.
func (g *gen) index(e string) string {
	return fmt.Sprintf("absi(%s) %% len(gia)", e)
}

// floatExpr generates a float expression.
func (g *gen) floatExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if len(g.floats) > 0 && g.rng.Intn(3) > 0 {
			return g.pick(g.floats)
		}
		return fmt.Sprintf("%d.%d", g.rng.Intn(8), g.rng.Intn(10))
	}
	a := g.floatExpr(depth - 1)
	b := g.floatExpr(depth - 1)
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / (absf(%s) + 1.5))", a, b)
	case 4:
		return fmt.Sprintf("gfa[%s]", g.index(g.intExpr(depth-1)))
	default:
		return fmt.Sprintf("itof(%s)", g.intExpr(depth-1))
	}
}

func (g *gen) cond(depth int) string {
	a := g.intExpr(depth)
	b := g.intExpr(depth)
	op := []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)]
	c := fmt.Sprintf("%s %s %s", a, op, b)
	if depth > 0 && g.rng.Intn(4) == 0 {
		join := []string{"&&", "||"}[g.rng.Intn(2)]
		return fmt.Sprintf("(%s) %s (%s)", c, join, g.cond(depth-1))
	}
	return c
}

func (g *gen) fresh(prefix string) string {
	g.vars++
	return fmt.Sprintf("%s%d", prefix, g.vars)
}

func (g *gen) stmt(depth int) {
	switch g.rng.Intn(8) {
	case 0: // new int local
		v := g.fresh("iv")
		g.line("int %s = %s;", v, g.intExpr(g.cfg.MaxDepth))
		g.ints = append(g.ints, v)
	case 1: // new float local
		v := g.fresh("fv")
		g.line("float %s = %s;", v, g.floatExpr(g.cfg.MaxDepth))
		g.floats = append(g.floats, v)
	case 2: // int assignment (never to a loop counter: termination!)
		var targets []string
		for _, v := range g.ints {
			if !strings.HasPrefix(v, "li") {
				targets = append(targets, v)
			}
		}
		if len(targets) > 0 {
			g.line("%s = %s;", g.pick(targets), g.intExpr(g.cfg.MaxDepth))
		} else {
			g.line("gcount = gcount + 1;")
		}
	case 3: // array store
		g.line("gia[%s] = %s;", g.index(g.intExpr(2)), g.intExpr(g.cfg.MaxDepth))
	case 4: // float array store
		g.line("gfa[%s] = %s;", g.index(g.intExpr(2)), g.floatExpr(g.cfg.MaxDepth))
	case 5: // if/else
		if depth <= 0 {
			g.line("gcount = gcount + 2;")
			return
		}
		g.line("if (%s) {", g.cond(2))
		g.block(depth-1, g.rng.Intn(g.cfg.MaxStmts)+1)
		if g.rng.Intn(2) == 0 {
			g.line("} else {")
			g.block(depth-1, g.rng.Intn(g.cfg.MaxStmts)+1)
		}
		g.line("}")
	case 6: // bounded counted loop
		if depth <= 0 || g.loopDepth >= 2 {
			g.line("gcount = gcount + 3;")
			return
		}
		i := g.fresh("li")
		g.line("for (int %s = 0; %s < %d; %s = %s + 1) {",
			i, i, g.rng.Intn(g.cfg.LoopIters)+1, i, i)
		g.ints = append(g.ints, i)
		g.loopDepth++
		g.block(depth-1, g.rng.Intn(g.cfg.MaxStmts)+1)
		g.loopDepth--
		g.ints = g.ints[:len(g.ints)-1]
		g.line("}")
	default: // call an earlier helper
		if len(g.funcs) == 0 || g.loopDepth > 1 {
			g.line("gcount = gcount ^ 5;")
			return
		}
		f := g.pick(g.funcs)
		g.line("gcount = (gcount + %s(%s, %s)) %% 1000003;", f, g.intExpr(2), g.intExpr(2))
	}
}

func (g *gen) block(depth, stmts int) {
	g.indent++
	savedI, savedF := len(g.ints), len(g.floats)
	for i := 0; i < stmts; i++ {
		g.stmt(depth)
	}
	g.ints = g.ints[:savedI]
	g.floats = g.floats[:savedF]
	g.indent--
}

func (g *gen) genFunc(name string) {
	g.line("func %s(int a, int b) int {", name)
	g.ints = []string{"a", "b"}
	g.floats = nil
	g.indent++
	g.line("int acc = a - b;")
	g.ints = append(g.ints, "acc")
	g.indent--
	g.block(2, g.rng.Intn(g.cfg.MaxStmts)+2)
	g.indent++
	g.line("return (acc + gcount) %% 1000003;")
	g.indent--
	g.line("}")
	g.funcs = append(g.funcs, name)
	g.ints, g.floats = nil, nil
}

func (g *gen) genMain() {
	g.line("func main() int {")
	g.indent++
	g.line("gia = new int[%d];", g.cfg.ArrayLen)
	g.line("gfa = new float[%d];", g.cfg.ArrayLen)
	g.line("for (int i = 0; i < len(gia); i = i + 1) { gia[i] = i * 7 %% 23; gfa[i] = itof(i) * 0.5; }")
	g.ints = []string{}
	g.indent--
	g.block(3, g.cfg.MaxStmts+2)
	g.indent++
	g.line("int chk = gcount;")
	g.line("for (int i = 0; i < len(gia); i = i + 1) { chk = (chk * 31 + gia[i] + ftoi(gfa[i] * 16.0)) %% 1000003; }")
	g.line("return chk;")
	g.indent--
	g.line("}")
}
