// Package minic implements the small Java-like language the evaluation
// applications are written in, compiled to dex bytecode. It plays the role
// of javac+d8 in the paper's toolchain (§2): the system under study never
// sees source, only bytecode — the §4 evaluation applications (Table 1's
// analogues in internal/apps) are all written in it.
//
// The language has int/float/bool scalars, jagged arrays, classes with
// single inheritance and virtual methods, global variables, and a builtin
// library that lowers to the standard native table (dex.StdNatives).
package minic

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct   // operators and delimiters
	tokKeyword // reserved words
)

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"class": true, "extends": true, "func": true, "global": true,
	"int": true, "float": true, "bool": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true, "throw": true,
	"new": true, "true": true, "false": true, "null": true, "this": true,
}

// Error is a compile error with position info.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

type lexer struct {
	file string
	src  []rune
	pos  int
	line int
	col  int
	toks []token
}

func lex(file, src string) ([]token, error) {
	l := &lexer{file: file, src: []rune(src), line: 1, col: 1}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return &Error{File: l.file, Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

// at reports whether the unread source starts with p. Every punctuator is
// ASCII, so comparing runes to bytes is exact.
func (l *lexer) at(p string) bool {
	if len(l.src)-l.pos < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		if l.src[l.pos+i] != rune(p[i]) {
			return false
		}
	}
	return true
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peekRune()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekRune() != '\n' {
				l.advance()
			}
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos+1 < len(l.src) {
				if l.peekRune() == '*' && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// multi-rune punctuation, longest first.
var puncts = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
	"(", ")", "{", "}", "[", "]", ",", ";", ".", "@",
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	start := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		start.kind = tokEOF
		return start, nil
	}
	r := l.peekRune()
	switch {
	case unicode.IsLetter(r) || r == '_':
		var sb strings.Builder
		for l.pos < len(l.src) && (unicode.IsLetter(l.peekRune()) || unicode.IsDigit(l.peekRune()) || l.peekRune() == '_') {
			sb.WriteRune(l.advance())
		}
		start.text = sb.String()
		if keywords[start.text] {
			start.kind = tokKeyword
		} else {
			start.kind = tokIdent
		}
		return start, nil

	case unicode.IsDigit(r):
		var sb strings.Builder
		isFloat := false
		for l.pos < len(l.src) {
			c := l.peekRune()
			if unicode.IsDigit(c) {
				sb.WriteRune(l.advance())
			} else if c == '.' && !isFloat && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1]) {
				isFloat = true
				sb.WriteRune(l.advance())
			} else if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) &&
				(unicode.IsDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+') {
				isFloat = true
				sb.WriteRune(l.advance())
				if l.peekRune() == '-' || l.peekRune() == '+' {
					sb.WriteRune(l.advance())
				}
			} else {
				break
			}
		}
		start.text = sb.String()
		if isFloat {
			start.kind = tokFloat
			if _, err := fmt.Sscanf(start.text, "%g", &start.fval); err != nil {
				return token{}, l.errf("bad float literal %q", start.text)
			}
		} else {
			start.kind = tokInt
			if _, err := fmt.Sscanf(start.text, "%d", &start.ival); err != nil {
				return token{}, l.errf("bad int literal %q", start.text)
			}
		}
		return start, nil

	default:
		for _, p := range puncts {
			if l.at(p) {
				for range p {
					l.advance()
				}
				start.kind = tokPunct
				start.text = p
				return start, nil
			}
		}
		return token{}, l.errf("unexpected character %q", r)
	}
}
