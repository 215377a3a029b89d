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
		target expr   // identExpr or indexExpr
		op     opcode // opAssign, or opAdd/opSub for ++/--
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
	// forStmt's header is a scope of its own holding the init's one var.
	forStmt struct {
		init *varStmt
		cond expr
		post stmt
		body block
	}
	funcStmt struct {
		ref    *identExpr // the function's name, resolved in the declaring scope
		params []string
		slots  []int // each parameter's slot in the function's frame
		body   block // runs directly in the function's frame
	}
	returnStmt struct{ value expr }
	breakStmt  struct{}
	exprStmt   struct{ e expr }
)

// block is a statement list with its own scope. size is the number of
// names the scope declares; a block that declares none gets no frame and
// runs in its enclosing one. stacked is set when no function statement
// sits in the block, nested blocks included: then nothing can keep its
// frame past its run, and the frame comes from the Interp's frame stack.
type block struct {
	stmts   []stmt
	size    int
	stacked bool
}

func (*varStmt) stmtNode()    {}
func (*assignStmt) stmtNode() {}
func (*ifStmt) stmtNode()     {}
func (*whileStmt) stmtNode()  {}
func (*forStmt) stmtNode()    {}
func (*funcStmt) stmtNode()   {}
func (*returnStmt) stmtNode() {}
func (*breakStmt) stmtNode()  {}
func (*exprStmt) stmtNode()   {}

type expr interface{ exprNode() }

type (
	// literal is a number, string, true, false or null. It carries its
	// boxed Value, built once at parse time, so evaluating a literal never
	// re-boxes (see intern.go).
	literal struct{ box Value }
	// identExpr is a variable reference. The parser fills in name; the
	// resolver binds the rest and shares one node among all references to
	// the same name that resolve alike. A read or write tries each slot in
	// locs, innermost first, skipping unset ones, then the global slot;
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
		op   opcode // any binary operator but +
		l, r expr
	}
	// addExpr is a left-associated + chain, terms[0] + terms[1] + …; a
	// parenthesized + on the right is a term of its own.
	addExpr  struct{ terms []expr }
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

func (*literal) exprNode()    {}
func (*identExpr) exprNode()  {}
func (*arrayLit) exprNode()   {}
func (*objectLit) exprNode()  {}
func (*binaryExpr) exprNode() {}
func (*addExpr) exprNode()    {}
func (*callExpr) exprNode()   {}
func (*indexExpr) exprNode()  {}
func (*memberExpr) exprNode() {}

// Program is a parsed script compiled to Go closures (see compile.go). It
// is immutable after Parse, so one Program may run on several Interps at
// once.
type Program struct {
	body    []execFn
	globals []string // the program's global names, indexed by identExpr.global
}

// Parse lexes, parses, resolves and compiles source text into a Program.
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
	globals := resolve(stmts) // the compiler reads what the resolver binds
	return &Program{globals: globals, body: compileStmts(stmts)}, nil
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
	// each function body: break is legal only where it is positive, so it
	// cannot escape a function into its caller's loop.
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

func (p *parser) expect(kind tokenKind, text string) error {
	if t := p.cur(); !p.at(kind, text) {
		return fmt.Errorf("script:%d: expected %q, found %q", t.line, text, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("script:%d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	if t.kind == tKeyword {
		switch t.text {
		case "var":
			return p.varStatement()
		case "if":
			return p.ifStatement()
		case "while":
			p.advance()
			cond, err := p.paren()
			if err != nil {
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
			return p.funcStatement()
		case "return":
			p.advance()
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tPunct, ";"); err != nil {
				return nil, err
			}
			return &returnStmt{value: v}, nil
		case "break":
			if p.loops == 0 {
				return nil, p.errf("break outside a loop")
			}
			p.advance()
			if err := p.expect(tPunct, ";"); err != nil {
				return nil, err
			}
			return &breakStmt{}, nil
		}
	}
	s, err := p.simpleStatement()
	if err != nil {
		return nil, err
	}
	return s, p.expect(tPunct, ";")
}

// varStatement parses `var name = e;`.
func (p *parser) varStatement() (*varStmt, error) {
	p.advance() // var
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, "="); err != nil {
		return nil, err
	}
	init, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	return &varStmt{ref: &identExpr{name: name}, init: init}, nil
}

func (p *parser) funcStatement() (stmt, error) {
	p.advance() // function
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, "("); err != nil {
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
	if err := p.expect(tPunct, ")"); err != nil {
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
}

// simpleStatement parses an assignment, increment or expression statement,
// without the trailing ';' (a for-header's post clause has none).
func (p *parser) simpleStatement() (stmt, error) {
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind != tPunct || t.text != "=" && t.text != "++" && t.text != "--" {
		return &exprStmt{e: e}, nil
	}
	switch e.(type) {
	case *identExpr, *indexExpr:
	default:
		return nil, p.errf("invalid assignment target")
	}
	p.advance()
	switch t.text {
	case "++":
		return &assignStmt{target: e, op: opAdd, value: newNumberLit(1)}, nil
	case "--":
		return &assignStmt{target: e, op: opSub, value: newNumberLit(1)}, nil
	}
	v, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &assignStmt{target: e, op: opAssign, value: v}, nil
}

// paren parses a parenthesized condition.
func (p *parser) paren() (expr, error) {
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return e, p.expect(tPunct, ")")
}

func (p *parser) ifStatement() (stmt, error) {
	p.advance() // if
	cond, err := p.paren()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var alt []stmt
	if p.accept(tKeyword, "else") {
		if alt, err = p.block(); err != nil {
			return nil, err
		}
	}
	return &ifStmt{cond: cond, then: block{stmts: then}, alt: block{stmts: alt}}, nil
}

// forStatement parses `for (var i = e; cond; post) {…}`.
func (p *parser) forStatement() (stmt, error) {
	p.advance() // for
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	if !p.at(tKeyword, "var") {
		return nil, p.errf("expected \"var\" in for header, found %q", p.cur().text)
	}
	init, err := p.varStatement() // consumes its own ';'
	if err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	post, err := p.simpleStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.loopBody()
	if err != nil {
		return nil, err
	}
	return &forStmt{init: init, cond: cond, post: post, body: block{stmts: body}}, nil
}

// loopBody parses a while/for body one loop level deeper.
func (p *parser) loopBody() ([]stmt, error) {
	p.loops++
	defer func() { p.loops-- }()
	return p.block()
}

func (p *parser) block() ([]stmt, error) {
	if err := p.expect(tPunct, "{"); err != nil {
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
	opAssign opcode = iota // plain "=" of an assignStmt
	opAnd
	opEq
	opNe
	opLt
	opGe
	opAdd
	opSub
	opMul
	opMod
)

// opNames maps each opcode back to its token, for error texts.
var opNames = [...]string{
	opAssign: "=", opAnd: "&&", opEq: "==", opNe: "!=", opLt: "<", opGe: ">=",
	opAdd: "+", opSub: "-", opMul: "*", opMod: "%",
}

func (o opcode) String() string { return opNames[o] }

// binOps holds each binary operator's opcode and precedence.
var binOps = map[string]struct {
	op   opcode
	prec int
}{
	"&&": {opAnd, 2},
	"==": {opEq, 3}, "!=": {opNe, 3},
	"<": {opLt, 4}, ">=": {opGe, 4},
	"+": {opAdd, 5}, "-": {opSub, 5},
	"*": {opMul, 6}, "%": {opMod, 6},
}

func (p *parser) expr() (expr, error) { return p.binary(1) }

func (p *parser) binary(minPrec int) (expr, error) {
	left, err := p.postfix()
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
		switch chain, ok := left.(*addExpr); {
		case b.op != opAdd:
			left = &binaryExpr{op: b.op, l: left, r: right}
		case ok:
			chain.terms = append(chain.terms, right)
		default:
			left = &addExpr{terms: []expr{left, right}}
		}
	}
}

func (p *parser) postfix() (expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tPunct, "("):
			args, err := p.list(")")
			if err != nil {
				return nil, err
			}
			e = &callExpr{fn: e, args: args}
		case p.accept(tPunct, "["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tPunct, "]"); err != nil {
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

// list parses comma-separated expressions up to and including end.
func (p *parser) list(end string) ([]expr, error) {
	var es []expr
	for !p.at(tPunct, end) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		es = append(es, e)
		if !p.accept(tPunct, ",") {
			break
		}
	}
	return es, p.expect(tPunct, end)
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tNumber:
		p.advance()
		return newNumberLit(t.num), nil
	case t.kind == tString:
		p.advance()
		return &literal{box: t.text}, nil
	case t.kind == tKeyword && (t.text == "true" || t.text == "false"):
		p.advance()
		return &literal{box: boolv(t.text == "true")}, nil
	case t.kind == tKeyword && t.text == "null":
		p.advance()
		return &literal{}, nil
	case t.kind == tIdent:
		p.advance()
		return &identExpr{name: t.text}, nil
	case p.accept(tPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(tPunct, ")")
	case p.accept(tPunct, "["):
		elems, err := p.list("]")
		if err != nil {
			return nil, err
		}
		return &arrayLit{elems: elems}, nil
	case p.accept(tPunct, "{"):
		o := &objectLit{}
		for !p.at(tPunct, "}") {
			key, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tPunct, ":"); err != nil {
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
		return o, p.expect(tPunct, "}")
	}
	return nil, p.errf("unexpected token %q", t.text)
}
