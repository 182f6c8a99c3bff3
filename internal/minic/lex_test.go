package minic

import (
	"strings"
	"testing"
)

func lexOK(t *testing.T, src string) []token {
	t.Helper()
	toks, err := lex("t", src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	return toks
}

func TestLexNumbers(t *testing.T) {
	toks := lexOK(t, "0 42 3.5 2.0e3 1e-2 7.25E+1")
	wantKinds := []tokKind{tokInt, tokInt, tokFloat, tokFloat, tokFloat, tokFloat, tokEOF}
	if len(toks) != len(wantKinds) {
		t.Fatalf("%d tokens", len(toks))
	}
	for i, k := range wantKinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind %d, want %d (%q)", i, toks[i].kind, k, toks[i].text)
		}
	}
	if toks[3].fval != 2000 {
		t.Errorf("2.0e3 = %v", toks[3].fval)
	}
	if toks[4].fval != 0.01 {
		t.Errorf("1e-2 = %v", toks[4].fval)
	}
}

func TestLexOperatorsLongestMatch(t *testing.T) {
	toks := lexOK(t, "<= << < == = && & ! !=")
	want := []string{"<=", "<<", "<", "==", "=", "&&", "&", "!", "!="}
	for i, w := range want {
		if toks[i].text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

// at matches a punctuator rune by rune against the unread source; it must
// agree with a prefix test on the rest of the source as a string, at the end
// of the input and next to non-ASCII runes too.
func TestLexAtMatchesStringPrefix(t *testing.T) {
	for _, src := range []string{"", "<", "<<", "<=x", "é<", "<é", "||", "&&&", "!=\n", "\xff="} {
		rs := []rune(src)
		for pos := 0; pos <= len(rs); pos++ {
			l := &lexer{src: rs, pos: pos}
			for _, p := range puncts {
				if got, want := l.at(p), strings.HasPrefix(string(rs[pos:]), p); got != want {
					t.Errorf("at(%q) on %q at %d = %v, want %v", p, src, pos, got, want)
				}
			}
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexOK(t, "a\n  bb\n")
	if toks[0].line != 1 || toks[0].col != 1 {
		t.Errorf("a at %d:%d", toks[0].line, toks[0].col)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("bb at %d:%d", toks[1].line, toks[1].col)
	}
}

func TestLexCommentsDontEatTokens(t *testing.T) {
	toks := lexOK(t, "x // comment\ny /* mid */ z")
	var names []string
	for _, tk := range toks {
		if tk.kind == tokIdent {
			names = append(names, tk.text)
		}
	}
	if len(names) != 3 || names[0] != "x" || names[1] != "y" || names[2] != "z" {
		t.Errorf("idents = %v", names)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("t", "a $ b"); err == nil {
		t.Error("accepted $")
	}
	if _, err := lex("t", "/* never closed"); err == nil {
		t.Error("accepted unterminated comment")
	}
}

func TestThreeDimensionalArrays(t *testing.T) {
	prog, err := CompileSource("t", `
func main() int {
	float[][][] cube = new float[2][][];
	for (int i = 0; i < 2; i = i + 1) {
		cube[i] = new float[3][];
		for (int j = 0; j < 3; j = j + 1) {
			cube[i][j] = new float[4];
			cube[i][j][2] = itof(i * 10 + j);
		}
	}
	return ftoi(cube[1][2][2]);
}`)
	if err != nil {
		t.Fatalf("3D arrays: %v", err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}
