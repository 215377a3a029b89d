package script

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// The compiler turns a resolved program into Go closures once, at the end
// of Parse, so running it never switches on a node's type. Each node is
// specialized when its closure is built: a variable read goes straight to
// its slot or global, a literal returns its parse-time box, each binary
// operator has a closure of its own, a call's method name is looked up
// once, and a + chain builds its string once.
//
// Closures capture only what Parse produced, so a Program stays immutable
// and may run on several Interps at once; all run-time state (globals,
// frames, the argument stack, string parts, the last return value) lives
// on the Interp or on the Go stack.
//
// Every statement and expression node charges one op when it runs, before
// anything else it does; string work charges its bytes as it goes. An
// error ends the run through throw, so the closures return no error.

// evalFn evaluates a compiled expression in frame fr.
type evalFn func(in *Interp, fr *frame) Value

// execFn runs a compiled statement in frame fr and reports how it ended.
type execFn func(in *Interp, fr *frame) ctl

// ctl is how a statement ended.
type ctl uint8

const (
	ctlNext   ctl = iota // go on to the next statement
	ctlBreak             // leave the innermost loop
	ctlReturn            // leave the function; Interp.ret holds the value
)

// function is a compiled function definition.
type function struct {
	name    string
	slots   []int // each parameter's slot in the function's frame
	size    int   // slots in the frame; 0 runs the body in the defining frame
	stacked bool  // the body makes no closure; see block
	body    []execFn
}

func runStmts(in *Interp, fr *frame, body []execFn) ctl {
	for _, s := range body {
		if c := s(in, fr); c != ctlNext {
			return c
		}
	}
	return ctlNext
}

func compileStmts(stmts []stmt) []execFn {
	body := make([]execFn, len(stmts))
	for i, s := range stmts {
		body[i] = compileStmt(s)
	}
	return body
}

func compileExprs(xs []expr) []evalFn {
	fns := make([]evalFn, len(xs))
	for i, x := range xs {
		fns[i] = compileExpr(x)
	}
	return fns
}

// compileBlock compiles b to run in a frame of its own when it declares
// anything, else in the enclosing one.
func compileBlock(b *block) execFn {
	body := compileStmts(b.stmts)
	switch {
	case b.size == 0 && len(body) == 1:
		return body[0]
	case b.size == 0:
		return func(in *Interp, fr *frame) ctl { return runStmts(in, fr, body) }
	}
	n, stacked := b.size, b.stacked
	return func(in *Interp, fr *frame) ctl {
		c := runStmts(in, in.enter(fr, n, stacked), body)
		in.leave(stacked)
		return c
	}
}

func compileStmt(s stmt) execFn {
	switch s := s.(type) {
	case *varStmt:
		init, ref := compileExpr(s.init), s.ref
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			in.define(ref, fr, init(in, fr))
			return ctlNext
		}
	case *assignStmt:
		return compileAssign(s)
	case *ifStmt:
		cond, then, alt := compileExpr(s.cond), compileBlock(&s.then), compileBlock(&s.alt)
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			if truthy(cond(in, fr)) {
				return then(in, fr)
			}
			return alt(in, fr)
		}
	case *whileStmt:
		cond, body := compileExpr(s.cond), compileBlock(&s.body)
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			return loop(in, fr, cond, body, nil)
		}
	case *forStmt:
		init, cond, post, body := compileStmt(s.init), compileExpr(s.cond), compileStmt(s.post), compileBlock(&s.body)
		stacked := s.body.stacked // the header's frame is stacked as its body's is
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			fe := in.enter(fr, 1, stacked)
			init(in, fe)
			c := loop(in, fe, cond, body, post)
			in.leave(stacked)
			return c
		}
	case *funcStmt:
		f := &function{name: s.ref.name, slots: s.slots, size: s.body.size,
			stacked: s.body.stacked, body: compileStmts(s.body.stmts)}
		ref := s.ref
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			in.define(ref, fr, &Closure{fn: f, fr: fr})
			return ctlNext
		}
	case *returnStmt:
		value := compileExpr(s.value)
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			in.ret = value(in, fr)
			return ctlReturn
		}
	case *breakStmt:
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			return ctlBreak
		}
	case *exprStmt:
		e := compileExpr(s.e)
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			e(in, fr)
			return ctlNext
		}
	}
	panic(fmt.Sprintf("script: unknown statement %T", s))
}

// loop runs body while cond holds, then post when there is one; a break
// ends the loop and a return passes through it.
func loop(in *Interp, fr *frame, cond evalFn, body, post execFn) ctl {
	for truthy(cond(in, fr)) {
		switch body(in, fr) {
		case ctlBreak:
			return ctlNext
		case ctlReturn:
			return ctlReturn
		}
		if post != nil {
			post(in, fr)
		}
	}
	return ctlNext
}

// compileAssign compiles x = e, a[i] = e, and the ++ and -- steps, which
// evaluate their literal 1, then read the target, then add or subtract.
func compileAssign(s *assignStmt) execFn {
	rhs, op := compileExpr(s.value), s.op
	if x, ok := s.target.(*identExpr); ok {
		if op != opAssign {
			one, read := rhs, compileIdent(x)
			rhs = func(in *Interp, fr *frame) Value {
				r := one(in, fr)
				return in.step(fr, op, read(in, fr), r)
			}
		}
		return func(in *Interp, fr *frame) ctl {
			in.charge(1, 0)
			in.store(x, fr, rhs(in, fr))
			return ctlNext
		}
	}
	t := s.target.(*indexExpr)
	base, idx := compileExpr(t.base), compileExpr(t.idx)
	return func(in *Interp, fr *frame) ctl {
		in.charge(1, 0)
		v := rhs(in, fr)
		// Base and index are evaluated once, for the read and the write.
		a, i := element(base(in, fr), idx(in, fr))
		if op != opAssign {
			in.charge(1, 0) // the element read, as an index expression charges it
			v = in.step(fr, op, a.Elems[i], v)
		}
		a.Elems[i] = v
		return ctlNext
	}
}

// step applies the opAdd or opSub of a ++ or -- to the target's value l.
func (in *Interp) step(fr *frame, op opcode, l, r Value) Value {
	if op == opAdd {
		return in.plus(fr, l, r, nil)
	}
	a, aok := l.(float64)
	b, bok := r.(float64)
	if !aok || !bok {
		needNumbers(op, l, r)
	}
	return num(a - b)
}

func compileExpr(x expr) evalFn {
	switch x := x.(type) {
	case *literal:
		return constant(x.box)
	case *identExpr:
		return compileIdent(x)
	case *arrayLit:
		elems := compileExprs(x.elems)
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			a := &Array{Elems: make([]Value, 0, len(elems))}
			for _, el := range elems {
				a.Elems = append(a.Elems, el(in, fr))
			}
			return a
		}
	case *objectLit:
		return compileObject(x)
	case *binaryExpr:
		return compileBinary(x)
	case *addExpr:
		terms := compileExprs(x.terms)
		return func(in *Interp, fr *frame) Value {
			for range len(terms) - 1 { // one op per +, all before the first term
				in.charge(1, 0)
			}
			return in.plus(fr, terms[0](in, fr), terms[1](in, fr), terms[2:])
		}
	case *indexExpr:
		base, idx := compileExpr(x.base), compileExpr(x.idx)
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			a, i := element(base(in, fr), idx(in, fr))
			return a.Elems[i]
		}
	case *memberExpr:
		base, name := compileExpr(x.base), x.name
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			return member(base(in, fr), name)
		}
	case *callExpr:
		return compileCall(x)
	}
	panic(fmt.Sprintf("script: unknown expression %T", x))
}

// constant returns a literal's box.
func constant(box Value) evalFn {
	return func(in *Interp, fr *frame) Value {
		in.charge(1, 0)
		return box
	}
}

// compileIdent compiles a variable read. Most names live in one place: a
// slot of the current frame, or only a global.
func compileIdent(x *identExpr) evalFn {
	switch {
	case len(x.locs) == 0:
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			return in.global(x)
		}
	case len(x.locs) == 1 && x.locs[0].depth == 0:
		slot := x.locs[0].slot
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			if v := fr.slots[slot]; !isUnset(v) {
				return v
			}
			return in.global(x)
		}
	}
	return func(in *Interp, fr *frame) Value {
		in.charge(1, 0)
		return in.lookup(x, fr)
	}
}

// compileObject compiles an object literal. A repeated key keeps its first
// place and its last value.
func compileObject(x *objectLit) evalFn {
	var keys []string
	at := make([]int, len(x.keys)) // each value's place in keys
	for i, k := range x.keys {
		if at[i] = slices.Index(keys, k); at[i] < 0 {
			at[i], keys = len(keys), append(keys, k)
		}
	}
	vals := compileExprs(x.vals)
	return func(in *Interp, fr *frame) Value {
		in.charge(1, 0)
		o := newObject(keys)
		for i, val := range vals {
			o.vals[at[i]] = val(in, fr)
		}
		return o
	}
}

// numbers charges the op of an operator that takes two numbers and
// evaluates its sides.
func numbers(in *Interp, fr *frame, op opcode, l, r evalFn) (float64, float64) {
	in.charge(1, 0)
	lv, rv := l(in, fr), r(in, fr)
	a, aok := lv.(float64)
	b, bok := rv.(float64)
	if !aok || !bok {
		needNumbers(op, lv, rv)
	}
	return a, b
}

func compileBinary(x *binaryExpr) evalFn {
	l, r, op := compileExpr(x.l), compileExpr(x.r), x.op
	switch op {
	case opAnd:
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			if lv := l(in, fr); !truthy(lv) {
				return lv // short-circuit
			}
			return r(in, fr)
		}
	case opEq, opNe:
		eq := op == opEq
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			return boolv(valueEq(l(in, fr), r(in, fr)) == eq)
		}
	case opLt:
		return func(in *Interp, fr *frame) Value {
			a, b := numbers(in, fr, op, l, r)
			return boolv(a < b)
		}
	case opGe:
		return func(in *Interp, fr *frame) Value {
			a, b := numbers(in, fr, op, l, r)
			return boolv(a >= b)
		}
	case opSub:
		return func(in *Interp, fr *frame) Value {
			a, b := numbers(in, fr, op, l, r)
			return num(a - b)
		}
	case opMul:
		return func(in *Interp, fr *frame) Value {
			a, b := numbers(in, fr, op, l, r)
			return num(a * b)
		}
	case opMod:
		return func(in *Interp, fr *frame) Value {
			a, b := numbers(in, fr, op, l, r)
			if b == 0 {
				return math.NaN()
			}
			return num(math.Mod(a, b))
		}
	}
	panic(fmt.Sprintf("script: unknown operator %q", op))
}

// plus adds r to l as one step of a + chain, then each term of rest in
// turn. Numbers add while both sides are numbers; from the first string
// on, concat builds the rest.
func (in *Interp) plus(fr *frame, l, r Value, rest []evalFn) Value {
	for {
		a, aok := l.(float64)
		b, bok := r.(float64)
		if !aok || !bok {
			break
		}
		l = num(a + b)
		if len(rest) == 0 {
			return l
		}
		r, rest = rest[0](in, fr), rest[1:]
	}
	_, ls := l.(string)
	_, rs := r.(string)
	if !ls && !rs {
		needNumbers(opAdd, l, r)
	}
	return in.concat(fr, toStr(l), toStr(r), rest)
}

// concat joins ls, rs and the string forms of rest's values, building the
// string once. Each step charges the bytes of its two sides, len(acc) +
// len(rs), as building every intermediate string would touch.
func (in *Interp) concat(fr *frame, ls, rs string, rest []evalFn) Value {
	n := len(ls) + len(rs)
	in.charge(0, int64(n))
	base := len(in.parts)
	in.parts = append(in.parts, ls, rs)
	for _, t := range rest {
		s := toStr(t(in, fr)) // before reading in.parts, which t may grow
		in.charge(0, int64(n+len(s)))
		in.parts = append(in.parts, s)
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range in.parts[base:] {
		b.WriteString(s)
	}
	in.dropParts(base)
	return b.String()
}

// dropParts drops the string parts above base, clearing them so they pin
// no string.
func (in *Interp) dropParts(base int) {
	clear(in.parts[base:])
	in.parts = in.parts[:base]
}

// compileCall compiles a call. A method call on a string or array looks its
// method up here, by name. A call of a function stored in an object reads
// the member (one op) from the receiver already evaluated.
func compileCall(x *callExpr) evalFn {
	args := compileExprs(x.args)
	if m, ok := x.fn.(*memberExpr); ok {
		recv, name := compileExpr(m.base), m.name
		sm, am := stringMethods[name], arrayMethods[name]
		return func(in *Interp, fr *frame) Value {
			in.charge(1, 0)
			rv := recv(in, fr)
			if o, isObj := rv.(*Object); isObj {
				in.charge(1, 0)
				return in.call(o.field(name), args, fr)
			}
			vals, base := in.evalArgs(args, fr)
			v := in.method(rv, name, sm, am, vals)
			in.pop(base)
			return v
		}
	}
	fn := compileExpr(x.fn)
	return func(in *Interp, fr *frame) Value {
		in.charge(1, 0)
		return in.call(fn(in, fr), args, fr)
	}
}
