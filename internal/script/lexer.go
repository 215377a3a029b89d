// Package script implements the small JavaScript-like language the page
// scripts of internal/webpage are written in: a lexer, a parser, a
// resolver that binds variables to frame slots and global slots, and a
// compiler that turns the result into Go closures, all once, at Parse
// (see compile.go). Executing a page script yields an operation count, a
// count of string bytes touched, and regex totals, which the browser
// converts into CPU cycles and the offload study replays on the DSP model.
// Interpreting real programs rather than assuming costs is what lets the
// reproduction measure "scripting is 51–60% of compute" instead of
// asserting it. The language is exactly what the five templates
// in internal/webpage/scripts.go use, so every construct is one whose op
// count reaches a figure:
//
//   - statements: `var x = e;` (initializer required), `function f(a, b)
//     {…}`, `return e;`, `if (c) {…} else {…}`, `while (c) {…}`, `break;`,
//     `for (var i = e; c; post) {…}` (all three clauses required),
//     `x = e;`, `a[i] = e;`, `x++;`, `x--;`, and expression statements;
//   - expressions: numbers (float64), double-quoted strings with the
//     escapes \\ and \" (any other escape stays verbatim, so "-full\.jpg$"
//     is a regex), true, false, null, array literals, object literals
//     with identifier keys, the operators && == != < >= + - * %, calls,
//     array indexing, and member reads;
//   - string methods length, indexOf, substring, toUpperCase, test, match
//     and replace; array methods length, push and join; the builtins
//     min(a, b) and str(v); and // line comments.
//
// Anything else is a parse error or a runtime error.
//
// String indexOf ignores a second argument: the analytics template calls
// m.indexOf("/", 12) and gets the first "/". Honouring the argument would
// move its StrBytes, and with them every web figure.
//
// An array that reaches +, str or join renders as "[array]", and an object
// as "[object]".
//
// One Program runs per Interp.Run, on globals that start unset each run;
// Stats accumulate across runs.
package script

import (
	"fmt"
	"strconv"
	"strings"
)

type tokenKind uint8

const (
	tEOF tokenKind = iota
	tNumber
	tString
	tIdent
	tKeyword
	tPunct
)

type token struct {
	kind tokenKind
	text string
	num  float64
	line int
}

// keywords are the reserved words; continue stays reserved so it is a
// parse error rather than a variable.
var keywords = map[string]bool{
	"var": true, "function": true, "if": true, "else": true, "while": true,
	"for": true, "return": true, "break": true, "continue": true,
	"true": true, "false": true, "null": true,
}

type lexer struct {
	src  string
	pos  int
	line int
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("script:%d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: l.line}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9':
		return l.number()
	case c == '"':
		return l.str()
	case c == '_' || isAlpha(c):
		for l.pos < len(l.src) && (l.src[l.pos] == '_' || isAlnum(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		k := tIdent
		if keywords[word] {
			k = tKeyword
		}
		return token{kind: k, text: word, line: l.line}, nil
	default:
		return l.punct()
	}
}

// Identifiers are ASCII: a non-ASCII byte is an unexpected character.
func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

func isAlnum(c byte) bool { return isAlpha(c) || c >= '0' && c <= '9' }

func (l *lexer) number() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	text := l.src[start:l.pos]
	// A second '.', as in "1.2.3" or "1..5", fails ParseFloat.
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errf("bad number %q", text)
	}
	return token{kind: tNumber, text: text, num: n, line: l.line}, nil
}

func (l *lexer) str() (token, error) {
	l.pos++ // opening quote
	// A literal without escapes is a slice of the source.
	if n := strings.IndexAny(l.src[l.pos:], "\"\\\n"); n >= 0 && l.src[l.pos+n] == '"' {
		text := l.src[l.pos : l.pos+n]
		l.pos += n + 1
		return token{kind: tString, text: text, line: l.line}, nil
	}
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tString, text: b.String(), line: l.line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			// \\ and \" are escapes; any other escape stays verbatim, so a
			// regex written "\d+" keeps its backslash.
			if e := l.src[l.pos]; e != '\\' && e != '"' {
				b.WriteByte('\\')
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		case '\n':
			return token{}, l.errf("newline in string literal")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string literal")
}

var twoCharPuncts = []string{"==", "!=", ">=", "&&", "++", "--"}

func (l *lexer) punct() (token, error) {
	n := 1
	for _, p := range twoCharPuncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			n = 2
			break
		}
	}
	if c := l.src[l.pos]; n == 1 && strings.IndexByte("+-*%=<(){}[],;.:", c) < 0 {
		return token{}, l.errf("unexpected character %q", c)
	}
	text := l.src[l.pos : l.pos+n]
	l.pos += n
	return token{kind: tPunct, text: text, line: l.line}, nil
}
