// Package script implements a small JavaScript-like language — lexer,
// parser, a resolver that binds variables to frame slots and global cells
// at parse time, and a tree-walking interpreter — used to model the scripting
// workload of web pages. Pages in internal/webpage carry real programs in
// this language (list filtering, URL matching, string munging, ad-tag
// routing); executing them yields an operation count and a log of regex
// evaluations, which the browser converts into CPU cycles and the offload
// study replays on the DSP model. Interpreting real programs rather than
// assuming costs is what lets the reproduction measure "scripting is 51–60%
// of compute" instead of asserting it.
//
// Language: var/function/if/else/while/for/return/break/continue,
// numbers (float64), strings, booleans, null, arrays, objects, the usual
// operators, string methods (length, indexOf, charAt, substring, split,
// toLowerCase, toUpperCase, match, search, replace, test), array methods
// (length, push, join, indexOf), and deterministic builtins (parseInt, str,
// abs, floor, min, max, len, keys).
package script

import (
	"fmt"
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
	pos  int
	line int
}

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
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errf("unterminated block comment")
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tEOF, pos: l.pos, line: l.line}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9':
		return l.number()
	case c == '"' || c == '\'':
		return l.str(c)
	case c == '_' || isAlpha(c):
		for l.pos < len(l.src) && (l.src[l.pos] == '_' || isAlnum(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		k := tIdent
		if keywords[word] {
			k = tKeyword
		}
		return token{kind: k, text: word, pos: start, line: l.line}, nil
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
	var n float64
	if _, err := fmt.Sscanf(text, "%g", &n); err != nil {
		return token{}, l.errf("bad number %q", text)
	}
	return token{kind: tNumber, text: text, num: n, pos: start, line: l.line}, nil
}

func (l *lexer) str(quote byte) (token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tString, text: b.String(), pos: l.pos, line: l.line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '\'', '"', '/':
				b.WriteByte(e)
			default:
				// Preserve unknown escapes verbatim so regex patterns like
				// "\\d+" written as "\d+" still work.
				b.WriteByte('\\')
				b.WriteByte(e)
			}
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

var twoCharPuncts = []string{"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--"}

func (l *lexer) punct() (token, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, p := range twoCharPuncts {
			if two == p {
				l.pos += 2
				return token{kind: tPunct, text: p, pos: l.pos - 2, line: l.line}, nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '!', '(', ')', '{', '}', '[', ']', ',', ';', '.', ':':
		l.pos++
		return token{kind: tPunct, text: string(c), pos: l.pos - 1, line: l.line}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}
