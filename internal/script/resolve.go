package script

import "slices"

// The resolver binds every variable reference to fixed positions once, at
// parse time, so the interpreter never searches for a name.
//
// Each function body (with its parameters), for header and block is a
// scope. A scope that declares something gets a frame at run time: a
// []Value holding one slot per declared name. Every other name is a global
// instead: an index into the Program's global names, and at run time into
// the []Value global table Run gives the program, so Interp.Global can
// still reach a global by name after the run.
//
// Lookups stay dynamic in one respect: a name is visible only once its var,
// function or parameter has run. So a reference records every enclosing
// frame that declares its name, innermost first, plus its global; slots
// start unset, and a read or write takes the first one set. A write that
// finds none lands in the global slot (an implicit global, like
// sloppy-mode JS).

// loc is one candidate slot of a reference: slot of the frame depth frames
// up from the current one.
type loc struct{ depth, slot int32 }

// scope is one lexical scope during resolution. Scopes that declare
// nothing have no frame at run time and resolve exactly like their parent.
type scope struct {
	parent *scope
	names  []string     // declared names; a name's slot is its index
	refs   []*identExpr // resolved references, shared by all uses of a name
}

// resolver holds the state of one Parse; nothing is kept between parses.
type resolver struct {
	globals []string
	index   map[string]int // globals' indexes
}

// resolve binds the parsed top-level statements and returns the
// program's global names.
func resolve(stmts []stmt) []string {
	r := &resolver{index: map[string]int{}}
	r.stmts(&scope{}, stmts)
	return r.globals
}

// global returns name's index in the program's global table.
func (r *resolver) global(name string) int {
	i, ok := r.index[name]
	if !ok {
		i = len(r.globals)
		r.index[name] = i
		r.globals = append(r.globals, name)
	}
	return i
}

// ref returns the resolved reference to name from scope sc.
func (r *resolver) ref(sc *scope, name string) *identExpr {
	for len(sc.names) == 0 && sc.parent != nil {
		sc = sc.parent
	}
	for _, x := range sc.refs {
		if x.name == name {
			return x
		}
	}
	x := &identExpr{name: name, global: r.global(name), builtin: builtins[name]}
	var depth int32
	for s := sc; s != nil; s = s.parent {
		if len(s.names) == 0 {
			continue
		}
		if i := slices.Index(s.names, name); i >= 0 {
			x.locs = append(x.locs, loc{depth, int32(i)})
		}
		depth++
	}
	sc.refs = append(sc.refs, x)
	return x
}

// declare adds name to sc (once) and returns its slot.
func (sc *scope) declare(name string) int {
	if i := slices.Index(sc.names, name); i >= 0 {
		return i
	}
	sc.names = append(sc.names, name)
	return len(sc.names) - 1
}

// declareBody declares the vars and functions a statement list defines
// directly; nested blocks are scopes of their own.
func (sc *scope) declareBody(stmts []stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *varStmt:
			sc.declare(s.ref.name)
		case *funcStmt:
			sc.declare(s.ref.name)
		}
	}
}

// block resolves b as a new scope inside sc and reports whether it makes
// a closure.
func (r *resolver) block(sc *scope, b *block) bool {
	inner := &scope{parent: sc}
	inner.declareBody(b.stmts)
	b.size = len(inner.names)
	b.stacked = !r.stmts(inner, b.stmts)
	return !b.stacked
}

// stmts resolves a statement list whose declarations sc already holds
// (the top level declares into the globals) and reports whether a function
// statement sits in it, nested blocks included.
func (r *resolver) stmts(sc *scope, stmts []stmt) (closure bool) {
	for _, s := range stmts {
		if r.stmt(sc, s) {
			closure = true
		}
	}
	return closure
}

func (r *resolver) stmt(sc *scope, s stmt) bool {
	switch s := s.(type) {
	case *varStmt:
		s.init = r.expr(sc, s.init)
		s.ref = r.ref(sc, s.ref.name)
	case *assignStmt:
		s.target = r.expr(sc, s.target)
		s.value = r.expr(sc, s.value)
	case *ifStmt:
		s.cond = r.expr(sc, s.cond)
		then := r.block(sc, &s.then)
		return r.block(sc, &s.alt) || then
	case *whileStmt:
		s.cond = r.expr(sc, s.cond)
		return r.block(sc, &s.body)
	case *forStmt:
		hdr := &scope{names: []string{s.init.ref.name}, parent: sc}
		r.stmt(hdr, s.init)
		s.cond = r.expr(hdr, s.cond)
		r.stmt(hdr, s.post)
		return r.block(hdr, &s.body)
	case *funcStmt:
		s.ref = r.ref(sc, s.ref.name)
		fn := &scope{parent: sc}
		s.slots = make([]int, len(s.params))
		for i, p := range s.params {
			s.slots[i] = fn.declare(p)
		}
		fn.declareBody(s.body.stmts)
		s.body.size = len(fn.names)
		s.body.stacked = !r.stmts(fn, s.body.stmts)
		return true
	case *returnStmt:
		s.value = r.expr(sc, s.value)
	case *exprStmt:
		s.e = r.expr(sc, s.e)
	}
	return false
}

// expr resolves x and returns it, or the shared node that replaces a
// variable reference.
func (r *resolver) expr(sc *scope, x expr) expr {
	switch x := x.(type) {
	case *identExpr:
		return r.ref(sc, x.name)
	case *arrayLit:
		for i, e := range x.elems {
			x.elems[i] = r.expr(sc, e)
		}
	case *objectLit:
		for i, e := range x.vals {
			x.vals[i] = r.expr(sc, e)
		}
	case *binaryExpr:
		x.l = r.expr(sc, x.l)
		x.r = r.expr(sc, x.r)
	case *addExpr:
		for i, e := range x.terms {
			x.terms[i] = r.expr(sc, e)
		}
	case *callExpr:
		x.fn = r.expr(sc, x.fn)
		for i, e := range x.args {
			x.args[i] = r.expr(sc, e)
		}
	case *indexExpr:
		x.base = r.expr(sc, x.base)
		x.idx = r.expr(sc, x.idx)
	case *memberExpr:
		x.base = r.expr(sc, x.base)
	}
	return x
}
