package script

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// Closure is a user-defined function: its definition and the frame it was
// defined in.
type Closure struct {
	fn *funcStmt
	fr *frame
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
	Host   RegexHost // nil = regexes evaluated with the package's own default
	MaxOps int64     // execution budget, in ops and separately in string bytes; default 50M
}

// maxDepth is the call-stack limit.
const maxDepth = 200

// Interp executes Programs, one per Run.
type Interp struct {
	cfg     Config
	names   []string // the last-run program's global names
	globals []Value  // its global table, indexed by identExpr.global
	stack   []Value  // call arguments being passed; see evalArgs
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
	return &Interp{cfg: cfg}
}

// Stats returns cumulative execution statistics, summed over every Run.
func (in *Interp) Stats() Stats { return in.stats }

// Global returns a global variable of the last-run program (nil when
// unset), letting tests inspect script results.
func (in *Interp) Global(name string) Value {
	if i := slices.Index(in.names, name); i >= 0 && !isUnset(in.globals[i]) {
		return in.globals[i]
	}
	return nil
}

// Run executes a program to completion on a fresh global table, so a run
// sees nothing an earlier one left.
func (in *Interp) Run(p *Program) error {
	in.names = p.globals
	in.globals = make([]Value, len(p.globals))
	for i := range in.globals {
		in.globals[i] = unset
	}
	_, err := in.execStmts(p.stmts, nil)
	if err != nil && !errors.Is(err, errReturnSignal) {
		return err
	}
	return nil
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

// unsetT marks a slot or global whose var, function or parameter has not
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

// lookup reads x: the innermost set slot, else the set global.
func (in *Interp) lookup(x *identExpr, fr *frame) (Value, bool) {
	for _, l := range x.locs {
		if v := *l.at(fr); !isUnset(v) {
			return v, true
		}
	}
	if v := in.globals[x.global]; !isUnset(v) {
		return v, true
	}
	return nil, false
}

// store writes x where lookup would read it; with nothing set, the global
// takes it (an implicit global, like sloppy-mode JS).
func (in *Interp) store(x *identExpr, fr *frame, v Value) {
	for _, l := range x.locs {
		if p := l.at(fr); !isUnset(*p) {
			*p = v
			return
		}
	}
	in.globals[x.global] = v
}

// define binds a declaration's name: its slot in the current frame, which
// the resolver puts first, or at the top level its global.
func (in *Interp) define(x *identExpr, fr *frame, v Value) {
	if len(x.locs) > 0 {
		fr.slots[x.locs[0].slot] = v
		return
	}
	in.globals[x.global] = v
}

// Control-flow signals.
var (
	errReturnSignal = errors.New("return")
	errBreakSignal  = errors.New("break")
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
		v, err := in.eval(s.init, fr)
		if err != nil {
			return nil, err
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
			if err != nil || !truthy(c) {
				return nil, err
			}
			if rv, err := in.execBlock(&s.body, fr); err != nil {
				return loopExit(rv, err)
			}
		}
	case *forStmt:
		fe := newFrame(fr, 1)
		if _, err := in.exec(s.init, fe); err != nil {
			return nil, err
		}
		for {
			c, err := in.eval(s.cond, fe)
			if err != nil || !truthy(c) {
				return nil, err
			}
			if rv, err := in.execBlock(&s.body, fe); err != nil {
				return loopExit(rv, err)
			}
			if _, err := in.exec(s.post, fe); err != nil {
				return nil, err
			}
		}
	case *funcStmt:
		in.define(s.ref, fr, &Closure{fn: s, fr: fr})
		return nil, nil
	case *returnStmt:
		v, err := in.eval(s.value, fr)
		if err != nil {
			return nil, err
		}
		return &returnValue{v: v}, errReturnSignal
	case *breakStmt:
		return nil, errBreakSignal
	case *exprStmt:
		_, err := in.eval(s.e, fr)
		return nil, err
	}
	return nil, fmt.Errorf("script: unknown statement %T", s)
}

// loopExit is what a loop returns when its body stops with err: a break
// ends the loop, anything else propagates.
func loopExit(rv *returnValue, err error) (*returnValue, error) {
	if errors.Is(err, errBreakSignal) {
		return nil, nil
	}
	return rv, err
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
		a, i, err := in.evalIndex(t, fr)
		if err != nil {
			return err
		}
		a.Elems[i] = v
		return nil
	}
	return fmt.Errorf("script: bad assignment target")
}

// evalIndex evaluates x's base and index and checks that they name an
// element of an array.
func (in *Interp) evalIndex(x *indexExpr, fr *frame) (*Array, int, error) {
	base, err := in.eval(x.base, fr)
	if err != nil {
		return nil, 0, err
	}
	idx, err := in.eval(x.idx, fr)
	if err != nil {
		return nil, 0, err
	}
	a, ok := base.(*Array)
	if !ok {
		return nil, 0, fmt.Errorf("script: cannot index %T", base)
	}
	i, ok := idx.(float64)
	if !ok || int(i) < 0 || int(i) >= len(a.Elems) {
		return nil, 0, fmt.Errorf("script: array index %v out of range (len %d)", idx, len(a.Elems))
	}
	return a, int(i), nil
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
	case *binaryExpr:
		l, err := in.eval(x.l, fr)
		if err != nil {
			return nil, err
		}
		if x.op == opAnd && !truthy(l) {
			return l, nil // short-circuit
		}
		r, err := in.eval(x.r, fr)
		if err != nil || x.op == opAnd {
			return r, err
		}
		return in.binop(x.op, l, r)
	case *indexExpr:
		a, i, err := in.evalIndex(x, fr)
		if err != nil {
			return nil, err
		}
		return a.Elems[i], nil
	case *memberExpr:
		base, err := in.eval(x.base, fr)
		if err != nil {
			return nil, err
		}
		return member(base, x.name)
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
		if in.depth >= maxDepth {
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
		rv, err := in.execStmts(fn.fn.body.stmts, fr)
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
	switch op {
	case opAdd:
		_, lok := l.(string)
		_, rok := r.(string)
		if lok || rok {
			ls, rs := toStr(l), toStr(r)
			if err := in.charge(0, int64(len(ls)+len(rs))); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
	case opEq:
		return boolv(valueEq(l, r)), nil
	case opNe:
		return boolv(!valueEq(l, r)), nil
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
	case opMod:
		if rn == 0 {
			return math.NaN(), nil
		}
		return num(math.Mod(ln, rn)), nil
	case opLt:
		return boolv(ln < rn), nil
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

// toStr converts v to a string. An array renders as "[array]" and an
// object as "[object]", whatever they hold.
func toStr(v Value) string {
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
	case *Closure:
		return "function " + v.fn.ref.name
	case *builtinFn:
		return "function " + v.name
	case *Array:
		return "[array]"
	}
	return "[object]" // *Object, the one Value type left
}

func member(base Value, name string) (Value, error) {
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
		// A second argument is ignored (see the package doc).
		sub, err := argStr(0)
		if err != nil {
			return nil, err
		}
		if err := charge(len(s)); err != nil {
			return nil, err
		}
		return num(float64(strings.Index(s, sub))), nil
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
	case "toUpperCase":
		if err := charge(len(s)); err != nil {
			return nil, err
		}
		return strings.ToUpper(s), nil
	case "test", "match", "replace":
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
		}
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
			parts[i] = toStr(e)
			total += len(parts[i])
		}
		if err := in.charge(int64(len(a.Elems)), int64(total)); err != nil {
			return nil, err
		}
		// Separators are not charged, but they too must fit the budget.
		if int64(len(sep))*int64(len(a.Elems)) > in.cfg.MaxOps-in.stats.StrBytes {
			return nil, ErrBudget
		}
		return strings.Join(parts, sep), nil
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
	"str": &builtinFn{name: "str", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s := toStr(args[0])
		return s, in.charge(0, int64(len(s)))
	}},
	"min": &builtinFn{name: "min", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("script: min: need two numeric arguments")
		}
		a, aok := args[0].(float64)
		b, bok := args[1].(float64)
		if !aok || !bok {
			return nil, fmt.Errorf("script: min: expected numbers")
		}
		return num(math.Min(a, b)), nil
	}},
}
