package script

import "fmt"

// AST node types.

type stmt interface{ stmtNode() }

type (
	varStmt struct {
		ref  *identExpr // the name, resolved in the declaring scope
		init expr
	}
	assignStmt struct {
		target expr   // identExpr, indexExpr, or memberExpr
		op     opcode // opAssign, or the operator of a compound assignment
		value  expr
	}
	ifStmt struct {
		cond      expr
		then, alt block
	}
	whileStmt struct {
		cond expr
		body block
	}
	forStmt struct {
		init   stmt // may be nil
		cond   expr // may be nil
		post   stmt // may be nil
		header int  // slots in the header's frame: 1 for a var init, else 0
		body   block
	}
	funcStmt struct {
		ref    *identExpr // the function's name, resolved in the declaring scope
		params []string
		slots  []int // each parameter's slot in the function's frame
		body   block // runs directly in the function's frame
	}
	returnStmt struct {
		value expr // may be nil
	}
	breakStmt    struct{}
	continueStmt struct{}
	exprStmt     struct{ e expr }
)

// block is a statement list with its own scope. size is the number of
// names the scope declares; a block that declares none gets no frame and
// runs in its enclosing one.
type block struct {
	stmts []stmt
	size  int
}

func (*varStmt) stmtNode()      {}
func (*assignStmt) stmtNode()   {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*forStmt) stmtNode()      {}
func (*funcStmt) stmtNode()     {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}
func (*exprStmt) stmtNode()     {}

type expr interface{ exprNode() }

type (
	// Literals carry their boxed Value, built once at parse time, so
	// evaluating a literal never re-boxes (see intern.go).
	numberLit struct {
		v   float64
		box Value
	}
	stringLit struct {
		v   string
		box Value
	}
	boolLit struct {
		v   bool
		box Value
	}
	nullLit struct{}
	// identExpr is a variable reference. The parser fills in name; the
	// resolver binds the rest and shares one node among all references to
	// the same name that resolve alike. A read or write tries each slot in
	// locs, innermost first, skipping unset ones, then the global cell;
	// a read of a name bound nowhere falls back to builtin.
	identExpr struct {
		name    string
		locs    []loc
		global  int   // index into Program.globals
		builtin Value // the builtin named name, or nil
	}
	arrayLit  struct{ elems []expr }
	objectLit struct {
		keys []string
		vals []expr
	}
	binaryExpr struct {
		op   opcode
		l, r expr
	}
	unaryExpr struct {
		op string
		e  expr
	}
	callExpr struct {
		fn   expr
		args []expr
	}
	indexExpr struct {
		base, idx expr
	}
	memberExpr struct {
		base expr
		name string
	}
)

func (*numberLit) exprNode()  {}
func (*stringLit) exprNode()  {}
func (*boolLit) exprNode()    {}
func (*nullLit) exprNode()    {}
func (*identExpr) exprNode()  {}
func (*arrayLit) exprNode()   {}
func (*objectLit) exprNode()  {}
func (*binaryExpr) exprNode() {}
func (*unaryExpr) exprNode()  {}
func (*callExpr) exprNode()   {}
func (*indexExpr) exprNode()  {}
func (*memberExpr) exprNode() {}

// Program is a parsed script ready for execution. It is immutable after
// Parse, so one Program may run on several Interps at once.
type Program struct {
	stmts   []stmt
	globals []string // names the program may address as globals
	src     string
}

// Source returns the original source text.
func (p *Program) Source() string { return p.src }

// Parse compiles source text into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []stmt
	for !p.at(tEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return resolve(stmts, src), nil
}

// MustParse is Parse that panics on error, for static workload scripts.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []token
	pos  int
	// loops is the loop nesting depth at the current statement, reset at
	// each function body: break and continue are legal only where it is
	// positive, so neither can escape a function into its caller's loop.
	loops int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		return t, fmt.Errorf("script:%d: expected %q, found %q", t.line, text, t.text)
	}
	p.advance()
	return t, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("script:%d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	if t.kind == tKeyword {
		switch t.text {
		case "var":
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			var init expr
			if p.accept(tPunct, "=") {
				init, err = p.expr()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tPunct, ";"); err != nil {
				return nil, err
			}
			return &varStmt{ref: &identExpr{name: name}, init: init}, nil
		case "if":
			return p.ifStatement()
		case "while":
			p.advance()
			if _, err := p.expect(tPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.loopBody()
			if err != nil {
				return nil, err
			}
			return &whileStmt{cond: cond, body: block{stmts: body}}, nil
		case "for":
			return p.forStatement()
		case "function":
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "("); err != nil {
				return nil, err
			}
			var params []string
			for !p.at(tPunct, ")") {
				pn, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				params = append(params, pn)
				if !p.accept(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			outer := p.loops
			p.loops = 0
			body, err := p.block()
			p.loops = outer
			if err != nil {
				return nil, err
			}
			return &funcStmt{ref: &identExpr{name: name}, params: params, body: block{stmts: body}}, nil
		case "return":
			p.advance()
			var v expr
			if !p.at(tPunct, ";") {
				var err error
				v, err = p.expr()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tPunct, ";"); err != nil {
				return nil, err
			}
			return &returnStmt{value: v}, nil
		case "break", "continue":
			if p.loops == 0 {
				return nil, p.errf("%s outside a loop", t.text)
			}
			p.advance()
			if _, err := p.expect(tPunct, ";"); err != nil {
				return nil, err
			}
			if t.text == "break" {
				return &breakStmt{}, nil
			}
			return &continueStmt{}, nil
		}
	}
	return p.simpleStatement(true)
}

// simpleStatement parses an assignment or expression statement;
// needSemi controls the trailing ';' (false inside for-headers).
func (p *parser) simpleStatement(needSemi bool) (stmt, error) {
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	var out stmt
	t := p.cur()
	switch {
	case t.kind == tPunct && assignOps[t.text] != opNone:
		if !isAssignable(e) {
			return nil, p.errf("invalid assignment target")
		}
		p.advance()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = &assignStmt{target: e, op: assignOps[t.text], value: v}
	case t.kind == tPunct && (t.text == "++" || t.text == "--"):
		if !isAssignable(e) {
			return nil, p.errf("invalid increment target")
		}
		p.advance()
		op := opAdd
		if t.text == "--" {
			op = opSub
		}
		out = &assignStmt{target: e, op: op, value: newNumberLit(1)}
	default:
		out = &exprStmt{e: e}
	}
	if needSemi {
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func isAssignable(e expr) bool {
	switch e.(type) {
	case *identExpr, *indexExpr, *memberExpr:
		return true
	}
	return false
}

func (p *parser) ifStatement() (stmt, error) {
	p.advance() // if
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var alt []stmt
	if p.accept(tKeyword, "else") {
		if p.at(tKeyword, "if") {
			s, err := p.ifStatement()
			if err != nil {
				return nil, err
			}
			alt = []stmt{s}
		} else {
			alt, err = p.block()
			if err != nil {
				return nil, err
			}
		}
	}
	return &ifStmt{cond: cond, then: block{stmts: then}, alt: block{stmts: alt}}, nil
}

func (p *parser) forStatement() (stmt, error) {
	p.advance() // for
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	f := &forStmt{}
	if !p.at(tPunct, ";") {
		if p.at(tKeyword, "var") {
			s, err := p.statement() // consumes its own ';'
			if err != nil {
				return nil, err
			}
			f.init = s
		} else {
			s, err := p.simpleStatement(true)
			if err != nil {
				return nil, err
			}
			f.init = s
		}
	} else {
		p.advance()
	}
	if !p.at(tPunct, ";") {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.cond = c
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(tPunct, ")") {
		s, err := p.simpleStatement(false)
		if err != nil {
			return nil, err
		}
		f.post = s
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.loopBody()
	if err != nil {
		return nil, err
	}
	f.body = block{stmts: body}
	return f, nil
}

// loopBody parses a while/for body one loop level deeper.
func (p *parser) loopBody() ([]stmt, error) {
	p.loops++
	defer func() { p.loops-- }()
	return p.block()
}

func (p *parser) block() ([]stmt, error) {
	if _, err := p.expect(tPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []stmt
	for !p.at(tPunct, "}") {
		if p.at(tEOF, "") {
			return nil, p.errf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance()
	return stmts, nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

// Expression parsing by precedence climbing.

// opcode is an operator resolved from its token at parse time, so the
// interpreter switches on a small integer rather than comparing strings.
type opcode uint8

const (
	opNone   opcode = iota // not an operator
	opAssign               // plain "=" of an assignStmt
	opOr
	opAnd
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
	opMod
)

// opNames maps each opcode back to its token, for error texts.
var opNames = [...]string{
	opAssign: "=", opOr: "||", opAnd: "&&", opEq: "==", opNe: "!=",
	opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opAdd: "+", opSub: "-", opMul: "*", opDiv: "/", opMod: "%",
}

func (o opcode) String() string { return opNames[o] }

// binOps holds each binary operator's opcode and precedence.
var binOps = map[string]struct {
	op   opcode
	prec int
}{
	"||": {opOr, 1}, "&&": {opAnd, 2},
	"==": {opEq, 3}, "!=": {opNe, 3},
	"<": {opLt, 4}, "<=": {opLe, 4}, ">": {opGt, 4}, ">=": {opGe, 4},
	"+": {opAdd, 5}, "-": {opSub, 5},
	"*": {opMul, 6}, "/": {opDiv, 6}, "%": {opMod, 6},
}

// assignOps maps each assignment token to the operator it applies.
var assignOps = map[string]opcode{
	"=": opAssign, "+=": opAdd, "-=": opSub, "*=": opMul, "/=": opDiv, "%=": opMod,
}

func (p *parser) expr() (expr, error) { return p.binary(1) }

func (p *parser) binary(minPrec int) (expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tPunct {
			return left, nil
		}
		b, ok := binOps[t.text]
		if !ok || b.prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.binary(b.prec + 1)
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: b.op, l: left, r: right}
	}
}

func (p *parser) unary() (expr, error) {
	t := p.cur()
	if t.kind == tPunct && (t.text == "!" || t.text == "-") {
		p.advance()
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: t.text, e: e}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tPunct, "("):
			var args []expr
			for !p.at(tPunct, ")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			e = &callExpr{fn: e, args: args}
		case p.accept(tPunct, "["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			e = &indexExpr{base: e, idx: idx}
		case p.accept(tPunct, "."):
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			e = &memberExpr{base: e, name: name}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tNumber:
		p.advance()
		return newNumberLit(t.num), nil
	case t.kind == tString:
		p.advance()
		return newStringLit(t.text), nil
	case t.kind == tKeyword && t.text == "true":
		p.advance()
		return newBoolLit(true), nil
	case t.kind == tKeyword && t.text == "false":
		p.advance()
		return newBoolLit(false), nil
	case t.kind == tKeyword && t.text == "null":
		p.advance()
		return &nullLit{}, nil
	case t.kind == tIdent:
		p.advance()
		return &identExpr{name: t.text}, nil
	case p.accept(tPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.accept(tPunct, "["):
		var elems []expr
		for !p.at(tPunct, "]") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		return &arrayLit{elems: elems}, nil
	case p.accept(tPunct, "{"):
		o := &objectLit{}
		for !p.at(tPunct, "}") {
			var key string
			kt := p.cur()
			if kt.kind == tIdent || kt.kind == tString {
				key = kt.text
				p.advance()
			} else {
				return nil, p.errf("expected object key, found %q", kt.text)
			}
			if _, err := p.expect(tPunct, ":"); err != nil {
				return nil, err
			}
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			o.keys = append(o.keys, key)
			o.vals = append(o.vals, v)
			if !p.accept(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "}"); err != nil {
			return nil, err
		}
		return o, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
