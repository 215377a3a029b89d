package script

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Value is a runtime value: float64, string, bool, nil, *Array, *Object,
// *Closure, or *builtinFn.
type Value any

// Array is a mutable array value (reference semantics, like JS).
type Array struct{ Elems []Value }

// Object is a mutable string-keyed map value.
type Object struct{ Fields map[string]Value }

// Closure is a user-defined function: its definition, the frame it was
// defined in, and the global cells of the run that defined it, so a
// function defined by one program still works when a later one calls it.
type Closure struct {
	fn    *funcStmt
	fr    *frame
	cells []*cell
}

type builtinFn struct {
	name string
	fn   func(in *Interp, args []Value) (Value, error)
}

// RegexHost evaluates a regex for the interpreter. Implementations decide
// which engine runs it and record whatever accounting they need.
// It returns whether the pattern matched and the match span in input bytes.
type RegexHost interface {
	ExecRegex(pattern, input string) (matched bool, start, end int, err error)
}

// Stats summarizes an execution's cost in device-neutral units.
type Stats struct {
	Ops      int64 // interpreter operations (AST evaluations)
	StrBytes int64 // bytes touched by string/array operations
}

// Config parameterizes an interpreter run.
type Config struct {
	Host     RegexHost // nil = regexes evaluated with the package's own default
	MaxOps   int64     // execution budget, in ops and separately in string bytes; default 50M
	MaxDepth int       // call-stack limit; default 200
}

// Interp executes Programs. One Interp may run several programs in sequence
// (globals persist), which is how a page's scripts share state.
type Interp struct {
	cfg     Config
	globals map[string]*cell
	cells   []*cell // the running code's global table, indexed by identExpr.global
	stack   []Value // call arguments being passed; see evalArgs
	stats   Stats
	depth   int
}

// ErrBudget is returned when an execution exceeds MaxOps.
var ErrBudget = errors.New("script: operation budget exceeded")

// New creates an interpreter.
func New(cfg Config) *Interp {
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = 50_000_000
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 200
	}
	return &Interp{cfg: cfg, globals: map[string]*cell{}}
}

// Stats returns cumulative execution statistics.
func (in *Interp) Stats() Stats { return in.stats }

// Global returns a global variable's value (nil when unset), letting tests
// and workload builders inspect script results.
func (in *Interp) Global(name string) Value {
	if c := in.globals[name]; c != nil && !isUnset(c.v) {
		return c.v
	}
	return nil
}

// SetGlobal pre-sets a global (page scripts receive their input data this
// way).
func (in *Interp) SetGlobal(name string, v Value) { in.cell(name).v = v }

// Run executes a program to completion.
func (in *Interp) Run(p *Program) error {
	in.cells = make([]*cell, len(p.globals))
	for i, name := range p.globals {
		in.cells[i] = in.cell(name)
	}
	_, err := in.execStmts(p.stmts, nil)
	if err != nil && !errors.Is(err, errReturnSignal) {
		return err
	}
	return nil
}

// cell holds one global; v is unset until the global is first defined.
type cell struct{ v Value }

// cell returns name's global cell, creating an unset one.
func (in *Interp) cell(name string) *cell {
	c := in.globals[name]
	if c == nil {
		c = &cell{v: unset}
		in.globals[name] = c
	}
	return c
}

// frame holds the locals of one scope activation (see resolve.go).
type frame struct {
	slots  []Value
	parent *frame
}

// newFrame returns a frame of n unset slots. Nearly every scope declares
// one or two names; those frames hold their slots inline, so entering the
// scope costs one allocation, not two.
func newFrame(parent *frame, n int) *frame {
	var f *frame
	switch n {
	case 1:
		sf := &struct {
			frame
			buf [1]Value
		}{}
		sf.slots, f = sf.buf[:], &sf.frame
	case 2:
		sf := &struct {
			frame
			buf [2]Value
		}{}
		sf.slots, f = sf.buf[:], &sf.frame
	default:
		f = &frame{slots: make([]Value, n)}
	}
	f.parent = parent
	for i := range f.slots {
		f.slots[i] = unset
	}
	return f
}

// unsetT marks a slot or cell whose var, function or parameter has not
// run yet; lookups skip it. It never escapes to script code.
type unsetT struct{}

var unset Value = unsetT{}

func isUnset(v Value) bool {
	_, ok := v.(unsetT)
	return ok
}

// at returns l's slot, in the frame l.depth frames up from fr.
func (l loc) at(fr *frame) *Value {
	for d := l.depth; d > 0; d-- {
		fr = fr.parent
	}
	return &fr.slots[l.slot]
}

// lookup reads x: the innermost set slot, else the set global cell.
func (in *Interp) lookup(x *identExpr, fr *frame) (Value, bool) {
	for _, l := range x.locs {
		if v := *l.at(fr); !isUnset(v) {
			return v, true
		}
	}
	if v := in.cells[x.global].v; !isUnset(v) {
		return v, true
	}
	return nil, false
}

// store writes x where lookup would read it; with nothing set, the global
// cell takes it (an implicit global, like sloppy-mode JS).
func (in *Interp) store(x *identExpr, fr *frame, v Value) {
	for _, l := range x.locs {
		if p := l.at(fr); !isUnset(*p) {
			*p = v
			return
		}
	}
	in.cells[x.global].v = v
}

// define binds a declaration's name: its slot in the current frame, which
// the resolver puts first, or at the top level its global cell.
func (in *Interp) define(x *identExpr, fr *frame, v Value) {
	if len(x.locs) > 0 {
		fr.slots[x.locs[0].slot] = v
		return
	}
	in.cells[x.global].v = v
}

// Control-flow signals.
var (
	errReturnSignal   = errors.New("return")
	errBreakSignal    = errors.New("break")
	errContinueSignal = errors.New("continue")
)

type returnValue struct{ v Value }

func (in *Interp) charge(ops int64, strBytes int64) error {
	in.stats.Ops += ops
	in.stats.StrBytes += strBytes
	if in.stats.Ops > in.cfg.MaxOps || in.stats.StrBytes > in.cfg.MaxOps {
		return ErrBudget
	}
	return nil
}

// bytesLeft is how many more string bytes the budget allows.
func (in *Interp) bytesLeft() int64 { return in.cfg.MaxOps - in.stats.StrBytes }

// execBlock runs b in a new frame when b declares anything, else in fr.
func (in *Interp) execBlock(b *block, fr *frame) (*returnValue, error) {
	if b.size > 0 {
		fr = newFrame(fr, b.size)
	}
	return in.execStmts(b.stmts, fr)
}

func (in *Interp) execStmts(stmts []stmt, fr *frame) (*returnValue, error) {
	for _, s := range stmts {
		rv, err := in.exec(s, fr)
		if err != nil {
			return rv, err
		}
	}
	return nil, nil
}

func (in *Interp) exec(s stmt, fr *frame) (*returnValue, error) {
	if err := in.charge(1, 0); err != nil {
		return nil, err
	}
	switch s := s.(type) {
	case *varStmt:
		var v Value
		if s.init != nil {
			var err error
			v, err = in.eval(s.init, fr)
			if err != nil {
				return nil, err
			}
		}
		in.define(s.ref, fr, v)
		return nil, nil
	case *assignStmt:
		return nil, in.assign(s, fr)
	case *ifStmt:
		c, err := in.eval(s.cond, fr)
		if err != nil {
			return nil, err
		}
		body := &s.then
		if !truthy(c) {
			body = &s.alt
		}
		return in.execBlock(body, fr)
	case *whileStmt:
		for {
			c, err := in.eval(s.cond, fr)
			if err != nil {
				return nil, err
			}
			if !truthy(c) {
				return nil, nil
			}
			rv, err := in.execBlock(&s.body, fr)
			if err != nil {
				if errors.Is(err, errBreakSignal) {
					return nil, nil
				}
				if errors.Is(err, errContinueSignal) {
					continue
				}
				return rv, err
			}
		}
	case *forStmt:
		fe := fr
		if s.header > 0 {
			fe = newFrame(fr, s.header)
		}
		if s.init != nil {
			if _, err := in.exec(s.init, fe); err != nil {
				return nil, err
			}
		}
		if s.cond == nil && s.post == nil && len(s.body.stmts) == 0 {
			// for (;;) {} charges no op and cannot end: it would spin past
			// any budget without ever reaching it.
			return nil, ErrBudget
		}
		for {
			if s.cond != nil {
				c, err := in.eval(s.cond, fe)
				if err != nil {
					return nil, err
				}
				if !truthy(c) {
					return nil, nil
				}
			}
			rv, err := in.execBlock(&s.body, fe)
			if err != nil {
				if errors.Is(err, errBreakSignal) {
					return nil, nil
				}
				if !errors.Is(err, errContinueSignal) {
					return rv, err
				}
			}
			if s.post != nil {
				if _, err := in.exec(s.post, fe); err != nil {
					return nil, err
				}
			}
		}
	case *funcStmt:
		in.define(s.ref, fr, &Closure{fn: s, fr: fr, cells: in.cells})
		return nil, nil
	case *returnStmt:
		var v Value
		if s.value != nil {
			var err error
			v, err = in.eval(s.value, fr)
			if err != nil {
				return nil, err
			}
		}
		return &returnValue{v: v}, errReturnSignal
	case *breakStmt:
		return nil, errBreakSignal
	case *continueStmt:
		return nil, errContinueSignal
	case *exprStmt:
		_, err := in.eval(s.e, fr)
		return nil, err
	}
	return nil, fmt.Errorf("script: unknown statement %T", s)
}

func (in *Interp) assign(s *assignStmt, fr *frame) error {
	v, err := in.eval(s.value, fr)
	if err != nil {
		return err
	}
	if s.op != opAssign {
		old, err := in.eval(s.target, fr)
		if err != nil {
			return err
		}
		v, err = in.binop(s.op, old, v)
		if err != nil {
			return err
		}
	}
	switch t := s.target.(type) {
	case *identExpr:
		in.store(t, fr, v)
		return nil
	case *indexExpr:
		base, err := in.eval(t.base, fr)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.idx, fr)
		if err != nil {
			return err
		}
		return in.setIndexValue(base, idx, v)
	case *memberExpr:
		base, err := in.eval(t.base, fr)
		if err != nil {
			return err
		}
		o, ok := base.(*Object)
		if !ok {
			return fmt.Errorf("script: cannot set member on %T", base)
		}
		o.Fields[t.name] = v
		return nil
	}
	return fmt.Errorf("script: bad assignment target")
}

// indexValue implements base[idx].
func (in *Interp) indexValue(base, idx Value) (Value, error) {
	switch b := base.(type) {
	case *Array:
		i, ok := idx.(float64)
		if !ok || int(i) < 0 || int(i) >= len(b.Elems) {
			return nil, fmt.Errorf("script: array index %v out of range (len %d)", idx, len(b.Elems))
		}
		return b.Elems[int(i)], nil
	case *Object:
		k, err := in.key(idx)
		if err != nil {
			return nil, err
		}
		return b.Fields[k], nil
	case string:
		i, ok := idx.(float64)
		if !ok || int(i) < 0 || int(i) >= len(b) {
			return nil, fmt.Errorf("script: string index %v out of range", idx)
		}
		if err := in.charge(0, 1); err != nil {
			return nil, err
		}
		return charv(b[int(i)]), nil
	}
	return nil, fmt.Errorf("script: cannot index %T", base)
}

// setIndexValue implements base[idx] = v.
func (in *Interp) setIndexValue(base, idx, v Value) error {
	switch b := base.(type) {
	case *Array:
		i, ok := idx.(float64)
		if !ok || int(i) < 0 || int(i) >= len(b.Elems) {
			return fmt.Errorf("script: array index %v out of range", idx)
		}
		b.Elems[int(i)] = v
		return nil
	case *Object:
		k, err := in.key(idx)
		if err != nil {
			return err
		}
		b.Fields[k] = v
		return nil
	}
	return fmt.Errorf("script: cannot index %T", base)
}

func (in *Interp) eval(x expr, fr *frame) (Value, error) {
	if err := in.charge(1, 0); err != nil {
		return nil, err
	}
	switch x := x.(type) {
	case *numberLit:
		return x.box, nil
	case *stringLit:
		return x.box, nil
	case *boolLit:
		return x.box, nil
	case *nullLit:
		return nil, nil
	case *identExpr:
		v, ok := in.lookup(x, fr)
		if !ok {
			if x.builtin != nil {
				return x.builtin, nil
			}
			return nil, fmt.Errorf("script: undefined variable %q", x.name)
		}
		return v, nil
	case *arrayLit:
		a := &Array{Elems: make([]Value, 0, len(x.elems))}
		for _, el := range x.elems {
			v, err := in.eval(el, fr)
			if err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, v)
		}
		return a, nil
	case *objectLit:
		o := &Object{Fields: map[string]Value{}}
		for i, k := range x.keys {
			v, err := in.eval(x.vals[i], fr)
			if err != nil {
				return nil, err
			}
			o.Fields[k] = v
		}
		return o, nil
	case *unaryExpr:
		v, err := in.eval(x.e, fr)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "!":
			return boolv(!truthy(v)), nil
		case "-":
			n, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("script: cannot negate %T", v)
			}
			return num(-n), nil
		}
	case *binaryExpr:
		// Short-circuit logical operators.
		if x.op == opAnd || x.op == opOr {
			l, err := in.eval(x.l, fr)
			if err != nil {
				return nil, err
			}
			if x.op == opAnd && !truthy(l) {
				return l, nil
			}
			if x.op == opOr && truthy(l) {
				return l, nil
			}
			return in.eval(x.r, fr)
		}
		l, err := in.eval(x.l, fr)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(x.r, fr)
		if err != nil {
			return nil, err
		}
		return in.binop(x.op, l, r)
	case *indexExpr:
		base, err := in.eval(x.base, fr)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(x.idx, fr)
		if err != nil {
			return nil, err
		}
		return in.indexValue(base, idx)
	case *memberExpr:
		base, err := in.eval(x.base, fr)
		if err != nil {
			return nil, err
		}
		return in.member(base, x.name)
	case *callExpr:
		// Method calls need the receiver.
		if m, ok := x.fn.(*memberExpr); ok {
			recv, err := in.eval(m.base, fr)
			if err != nil {
				return nil, err
			}
			if _, isObj := recv.(*Object); !isObj {
				args, base, err := in.evalArgs(x.args, fr)
				if err != nil {
					return nil, err
				}
				v, err := in.method(recv, m.name, args)
				in.pop(base)
				return v, err
			}
		}
		fnv, err := in.eval(x.fn, fr)
		if err != nil {
			return nil, err
		}
		args, base, err := in.evalArgs(x.args, fr)
		if err != nil {
			return nil, err
		}
		v, err := in.call(fnv, args)
		in.pop(base)
		return v, err
	}
	return nil, fmt.Errorf("script: unknown expression %T", x)
}

// evalArgs pushes the values of args onto the interpreter's stack and
// returns them, capped so a callee cannot append into the stack, with the
// stack height below them for pop after the call. Calls made while
// evaluating an argument push and pop above it, so no call allocates an
// argument slice. Callees read their arguments only during the call: push
// copies them and a closure copies them into its frame.
func (in *Interp) evalArgs(args []expr, fr *frame) (vals []Value, base int, err error) {
	base = len(in.stack)
	for _, a := range args {
		v, err := in.eval(a, fr)
		if err != nil {
			in.pop(base)
			return nil, base, err
		}
		in.stack = append(in.stack, v)
	}
	return in.stack[base:len(in.stack):len(in.stack)], base, nil
}

// pop drops the stack above base, clearing it so it pins no value.
func (in *Interp) pop(base int) {
	clear(in.stack[base:])
	in.stack = in.stack[:base]
}

func (in *Interp) call(fnv Value, args []Value) (Value, error) {
	switch fn := fnv.(type) {
	case *Closure:
		if in.depth >= in.cfg.MaxDepth {
			return nil, fmt.Errorf("script: call stack exceeded in %s", fn.fn.ref.name)
		}
		fr := fn.fr
		if n := fn.fn.body.size; n > 0 {
			fr = newFrame(fr, n)
			for i, slot := range fn.fn.slots {
				var v Value
				if i < len(args) {
					v = args[i]
				}
				fr.slots[slot] = v
			}
		}
		in.depth++
		cells := in.cells
		in.cells = fn.cells
		rv, err := in.execStmts(fn.fn.body.stmts, fr)
		in.cells = cells
		in.depth--
		if err != nil && !errors.Is(err, errReturnSignal) {
			return nil, err
		}
		if rv != nil {
			return rv.v, nil
		}
		return nil, nil
	case *builtinFn:
		return fn.fn(in, args)
	}
	return nil, fmt.Errorf("script: %T is not callable", fnv)
}

func (in *Interp) binop(op opcode, l, r Value) (Value, error) {
	if op == opAdd {
		ls, lok := l.(string)
		rs, rok := r.(string)
		if lok || rok {
			if !lok {
				ls, _ = in.toStr(l)
			}
			if !rok {
				rs, _ = in.toStr(r)
			}
			if err := in.charge(0, int64(len(ls)+len(rs))); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
	}
	switch op {
	case opEq:
		return boolv(valueEq(l, r)), nil
	case opNe:
		return boolv(!valueEq(l, r)), nil
	}
	// String comparison.
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case opLt:
				return boolv(ls < rs), nil
			case opLe:
				return boolv(ls <= rs), nil
			case opGt:
				return boolv(ls > rs), nil
			case opGe:
				return boolv(ls >= rs), nil
			}
		}
	}
	ln, lok := l.(float64)
	rn, rok := r.(float64)
	if !lok || !rok {
		return nil, fmt.Errorf("script: %q needs numbers, got %T and %T", op, l, r)
	}
	switch op {
	case opAdd:
		return num(ln + rn), nil
	case opSub:
		return num(ln - rn), nil
	case opMul:
		return num(ln * rn), nil
	case opDiv:
		if rn == 0 {
			return math.Inf(int(math.Copysign(1, ln))), nil
		}
		return num(ln / rn), nil
	case opMod:
		if rn == 0 {
			return math.NaN(), nil
		}
		return num(math.Mod(ln, rn)), nil
	case opLt:
		return boolv(ln < rn), nil
	case opLe:
		return boolv(ln <= rn), nil
	case opGt:
		return boolv(ln > rn), nil
	case opGe:
		return boolv(ln >= rn), nil
	}
	return nil, fmt.Errorf("script: unknown operator %q", op)
}

func valueEq(l, r Value) bool {
	if l == nil && r == nil {
		return true
	}
	switch a := l.(type) {
	case float64:
		b, ok := r.(float64)
		return ok && a == b
	case string:
		b, ok := r.(string)
		return ok && a == b
	case bool:
		b, ok := r.(bool)
		return ok && a == b
	}
	return l == r // reference equality for arrays/objects
}

func truthy(v Value) bool {
	switch v := v.(type) {
	case nil:
		return false
	case bool:
		return v
	case float64:
		return v != 0 && !math.IsNaN(v)
	case string:
		return v != ""
	}
	return true
}

// toStr converts v to a string. An array renders as its elements joined
// by ","; an array nested in itself renders as "" there, as in JS. An
// array's rendering stops once it passes the string bytes the budget has
// left, and full then reports false. A caller that charges the result may
// ignore full, because that charge fails anyway.
func (in *Interp) toStr(v Value) (s string, full bool) {
	a, ok := v.(*Array)
	if !ok {
		return scalarStr(v), true
	}
	var b strings.Builder
	full = writeArray(&b, a, nil, in.bytesLeft())
	return b.String(), full
}

// key converts an object index to its field name. It fails with ErrBudget
// where toStr cuts the rendering short, as nothing charges a key.
func (in *Interp) key(idx Value) (string, error) {
	k, full := in.toStr(idx)
	if !full {
		return "", ErrBudget
	}
	return k, nil
}

// writeArray renders a into b and reports whether it rendered all of a
// before b passed limit; open holds the arrays being rendered.
func writeArray(b *strings.Builder, a *Array, open []*Array, limit int64) bool {
	if slices.Contains(open, a) {
		return true
	}
	open = append(open, a)
	for i, e := range a.Elems {
		if int64(b.Len()) > limit {
			return false
		}
		if i > 0 {
			b.WriteByte(',')
		}
		if ea, ok := e.(*Array); ok {
			if !writeArray(b, ea, open, limit) {
				return false
			}
		} else {
			b.WriteString(scalarStr(e))
		}
	}
	return true
}

// scalarStr converts any value but an array to a string.
func scalarStr(v Value) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case string:
		return v
	case bool:
		if v {
			return "true"
		}
		return "false"
	case float64:
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			return strconv.FormatInt(int64(v), 10)
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	case *Object:
		return "[object]"
	case *Closure:
		return "function " + v.fn.ref.name
	case *builtinFn:
		return "function " + v.name
	}
	return fmt.Sprintf("%v", v)
}

func (in *Interp) member(base Value, name string) (Value, error) {
	switch b := base.(type) {
	case string:
		if name == "length" {
			return num(float64(len(b))), nil
		}
	case *Array:
		if name == "length" {
			return num(float64(len(b.Elems))), nil
		}
	case *Object:
		return b.Fields[name], nil
	}
	return nil, fmt.Errorf("script: no member %q on %T", name, base)
}

// method dispatches string and array methods.
func (in *Interp) method(recv Value, name string, args []Value) (Value, error) {
	switch r := recv.(type) {
	case string:
		return in.stringMethod(r, name, args)
	case *Array:
		return in.arrayMethod(r, name, args)
	}
	return nil, fmt.Errorf("script: no method %q on %T", name, recv)
}

func (in *Interp) stringMethod(s, name string, args []Value) (Value, error) {
	charge := func(n int) error { return in.charge(int64(1+n/8), int64(n)) }
	argStr := func(i int) (string, error) {
		if i >= len(args) {
			return "", fmt.Errorf("script: %s: missing argument %d", name, i)
		}
		v, ok := args[i].(string)
		if !ok {
			return "", fmt.Errorf("script: %s: argument %d must be a string", name, i)
		}
		return v, nil
	}
	argNum := func(i int) (int, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("script: %s: missing argument %d", name, i)
		}
		v, ok := args[i].(float64)
		if !ok {
			return 0, fmt.Errorf("script: %s: argument %d must be a number", name, i)
		}
		return int(v), nil
	}
	switch name {
	case "indexOf":
		sub, err := argStr(0)
		if err != nil {
			return nil, err
		}
		if err := charge(len(s)); err != nil {
			return nil, err
		}
		return num(float64(strings.Index(s, sub))), nil
	case "charAt":
		i, err := argNum(0)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return charv(s[i]), nil
	case "substring":
		a, err := argNum(0)
		if err != nil {
			return nil, err
		}
		b := len(s)
		if len(args) > 1 {
			b, err = argNum(1)
			if err != nil {
				return nil, err
			}
		}
		a = clamp(a, 0, len(s))
		b = clamp(b, 0, len(s))
		if a > b {
			a, b = b, a
		}
		if err := charge(b - a); err != nil {
			return nil, err
		}
		return s[a:b], nil
	case "split":
		sep, err := argStr(0)
		if err != nil {
			return nil, err
		}
		if err := charge(len(s)); err != nil {
			return nil, err
		}
		parts := strings.Split(s, sep)
		a := &Array{Elems: make([]Value, len(parts))}
		for i, p := range parts {
			a.Elems[i] = p
		}
		return a, nil
	case "toLowerCase":
		if err := charge(len(s)); err != nil {
			return nil, err
		}
		return strings.ToLower(s), nil
	case "toUpperCase":
		if err := charge(len(s)); err != nil {
			return nil, err
		}
		return strings.ToUpper(s), nil
	case "startsWith":
		pre, err := argStr(0)
		if err != nil {
			return nil, err
		}
		if err := charge(len(pre)); err != nil {
			return nil, err
		}
		return boolv(strings.HasPrefix(s, pre)), nil
	case "test", "match", "search", "replace":
		pat, err := argStr(0)
		if err != nil {
			return nil, err
		}
		matched, start, end, err := in.execRegex(pat, s)
		if err != nil {
			return nil, err
		}
		switch name {
		case "test":
			return boolv(matched), nil
		case "match":
			if !matched {
				return nil, nil
			}
			return s[start:end], nil
		case "search":
			if !matched {
				return num(-1), nil
			}
			return num(float64(start)), nil
		case "replace":
			repl, err := argStr(1)
			if err != nil {
				return nil, err
			}
			if !matched {
				return s, nil
			}
			if err := charge(len(s) + len(repl)); err != nil {
				return nil, err
			}
			return s[:start] + repl + s[end:], nil
		}
	}
	return nil, fmt.Errorf("script: unknown string method %q", name)
}

// execRegex evaluates a regex on the configured host; without one it uses
// the shared pricing memo and records nothing. Regex evaluation is charged
// separately by the host/profile layer; the interpreter only pays the
// dispatch.
func (in *Interp) execRegex(pattern, input string) (bool, int, int, error) {
	if in.cfg.Host != nil {
		return in.cfg.Host.ExecRegex(pattern, input)
	}
	r, err := priceRegex(pattern, input, 0)
	return r.matched, r.start, r.end, err
}

func (in *Interp) arrayMethod(a *Array, name string, args []Value) (Value, error) {
	switch name {
	case "push":
		a.Elems = append(a.Elems, args...)
		return num(float64(len(a.Elems))), nil
	case "pop":
		if len(a.Elems) == 0 {
			return nil, nil
		}
		v := a.Elems[len(a.Elems)-1]
		a.Elems = a.Elems[:len(a.Elems)-1]
		return v, nil
	case "join":
		sep := ","
		if len(args) > 0 {
			if s, ok := args[0].(string); ok {
				sep = s
			}
		}
		parts := make([]string, len(a.Elems))
		total := 0
		for i, e := range a.Elems {
			parts[i], _ = in.toStr(e)
			total += len(parts[i])
			if int64(total) > in.bytesLeft() {
				break // the charge below fails
			}
		}
		if err := in.charge(int64(len(a.Elems)), int64(total)); err != nil {
			return nil, err
		}
		// Separators are not charged, but they too must fit the budget.
		if int64(len(sep))*int64(len(a.Elems)) > in.bytesLeft() {
			return nil, ErrBudget
		}
		return strings.Join(parts, sep), nil
	case "indexOf":
		if len(args) == 0 {
			return nil, fmt.Errorf("script: indexOf: missing argument")
		}
		if err := in.charge(int64(len(a.Elems)), 0); err != nil {
			return nil, err
		}
		for i, e := range a.Elems {
			if valueEq(e, args[0]) {
				return num(float64(i)), nil
			}
		}
		return num(-1), nil
	case "slice":
		start, end := 0, len(a.Elems)
		if len(args) > 0 {
			if n, ok := args[0].(float64); ok {
				start = clamp(int(n), 0, len(a.Elems))
			}
		}
		if len(args) > 1 {
			if n, ok := args[1].(float64); ok {
				end = clamp(int(n), 0, len(a.Elems))
			}
		}
		if start > end {
			start = end
		}
		out := &Array{Elems: make([]Value, end-start)}
		copy(out.Elems, a.Elems[start:end])
		return out, in.charge(int64(end-start), 0)
	}
	return nil, fmt.Errorf("script: unknown array method %q", name)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

var builtins = map[string]Value{
	"parseInt": &builtinFn{name: "parseInt", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s, ok := args[0].(string)
		if !ok {
			if n, ok := args[0].(float64); ok {
				return num(math.Trunc(n)), nil
			}
			return math.NaN(), nil
		}
		s = strings.TrimSpace(s)
		i := 0
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i {
			return math.NaN(), nil
		}
		n, err := strconv.ParseFloat(s[:j], 64)
		if err != nil {
			return math.NaN(), nil
		}
		return num(n), nil
	}},
	"str": &builtinFn{name: "str", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s, _ := in.toStr(args[0])
		return s, in.charge(0, int64(len(s)))
	}},
	"abs":   &builtinFn{name: "abs", fn: num1(math.Abs)},
	"floor": &builtinFn{name: "floor", fn: num1(math.Floor)},
	"ceil":  &builtinFn{name: "ceil", fn: num1(math.Ceil)},
	"sqrt":  &builtinFn{name: "sqrt", fn: num1(math.Sqrt)},
	"min":   &builtinFn{name: "min", fn: num2(math.Min)},
	"max":   &builtinFn{name: "max", fn: num2(math.Max)},
	"len": &builtinFn{name: "len", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("script: len: missing argument")
		}
		switch v := args[0].(type) {
		case string:
			return num(float64(len(v))), nil
		case *Array:
			return num(float64(len(v.Elems))), nil
		case *Object:
			return num(float64(len(v.Fields))), nil
		}
		return nil, fmt.Errorf("script: len of %T", args[0])
	}},
	"keys": &builtinFn{name: "keys", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("script: keys: missing argument")
		}
		o, ok := args[0].(*Object)
		if !ok {
			return nil, fmt.Errorf("script: keys of %T", args[0])
		}
		ks := make([]string, 0, len(o.Fields))
		for k := range o.Fields {
			ks = append(ks, k)
		}
		sort.Strings(ks) // deterministic iteration
		a := &Array{Elems: make([]Value, len(ks))}
		for i, k := range ks {
			a.Elems[i] = k
		}
		return a, in.charge(int64(len(ks)), 0)
	}},
}

func num1(f func(float64) float64) func(*Interp, []Value) (Value, error) {
	return func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("script: missing numeric argument")
		}
		n, ok := args[0].(float64)
		if !ok {
			return nil, fmt.Errorf("script: expected number, got %T", args[0])
		}
		return num(f(n)), nil
	}
}

func num2(f func(a, b float64) float64) func(*Interp, []Value) (Value, error) {
	return func(in *Interp, args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("script: need two numeric arguments")
		}
		a, aok := args[0].(float64)
		b, bok := args[1].(float64)
		if !aok || !bok {
			return nil, fmt.Errorf("script: expected numbers")
		}
		return num(f(a, b)), nil
	}
}
