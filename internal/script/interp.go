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

// Object is a string-keyed value made by an object literal. Its keys are
// the literal's, shared by every object the literal makes; the language has
// no member assignment, so an object never changes after it is made.
type Object struct {
	keys []string
	vals []Value
}

// newObject returns an object with keys and nil values. The page
// templates' objects have three keys; up to four, the values sit in the
// object's own allocation.
func newObject(keys []string) *Object {
	if len(keys) > 4 {
		return &Object{keys: keys, vals: make([]Value, len(keys))}
	}
	so := &struct {
		Object
		buf [4]Value
	}{}
	so.keys, so.vals = keys, so.buf[:len(keys)]
	return &so.Object
}

// field returns the value under name, or nil when o has no such key.
func (o *Object) field(name string) Value {
	if i := slices.Index(o.keys, name); i >= 0 {
		return o.vals[i]
	}
	return nil
}

// Closure is a user-defined function: its compiled definition and the frame
// it was defined in.
type Closure struct {
	fn *function
	fr *frame
}

type builtinFn struct {
	name string
	fn   func(in *Interp, args []Value) Value
}

// RegexHost evaluates a regex for the interpreter. Implementations decide
// which engine runs it and record whatever accounting they need.
// It returns whether the pattern matched and the match span in input bytes.
type RegexHost interface {
	ExecRegex(pattern, input string) (matched bool, start, end int, err error)
}

// Stats summarizes an execution's cost in device-neutral units.
type Stats struct {
	Ops      int64 // interpreter operations (one per statement and expression node run)
	StrBytes int64 // bytes touched by string/array operations
}

// Config parameterizes an interpreter run.
type Config struct {
	Host   RegexHost // nil = regexes evaluated with the package's own default
	MaxOps int64     // execution budget, in ops and separately in string bytes; default 50M
}

// maxDepth is the call-stack limit.
const maxDepth = 200

// Interp executes Programs, one per Run. It holds all of a run's mutable
// state; the compiled Program holds none.
type Interp struct {
	cfg     Config
	names   []string // the last-run program's global names
	globals []Value  // its global table, indexed by identExpr.global
	stack   []Value  // call arguments being passed; see evalArgs
	parts   []string // string parts of the + chains being built; see concat
	frames  []*frame // the frame stack; see enter
	nframes int      // frames in use
	ret     Value    // the value of the return statement that ran last
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

// runError carries the error that ends a run from where it happened up
// the Go stack to Run, which returns it; see throw.
type runError struct{ err error }

// throw ends the current run with err.
func throw(err error) { panic(runError{err}) }

// Run executes a program to completion on a fresh global table, so a run
// sees nothing an earlier one left. A top-level return ends it. A run that
// fails stops where it failed, with its Stats charged up to that point.
func (in *Interp) Run(p *Program) (err error) {
	in.names = p.globals
	in.globals = make([]Value, len(p.globals))
	for i := range in.globals {
		in.globals[i] = unset
	}
	// A failed run leaves its stacks as they were when it stopped.
	in.pop(0)
	in.dropParts(0)
	in.nframes, in.depth, in.ret = 0, 0, nil
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runError)
			if !ok {
				panic(r)
			}
			err = re.err
		}
	}()
	runStmts(in, nil, p.body)
	in.ret = nil
	return nil
}

// frame holds the locals of one scope activation (see resolve.go).
type frame struct {
	slots  []Value
	parent *frame
}

// enter returns a frame of n unset slots under parent for a scope about to
// run. Only a closure can keep a frame past its scope's run, so a scope
// that makes none (stacked; see block) takes its frame from the Interp's
// frame stack, and leave gives it back when the scope ends; scopes nest,
// so the stack is last in, first out. A stacked loop body reuses one frame
// for every iteration, a stacked call one frame per call depth. Any other
// scope gets a new frame on the heap.
func (in *Interp) enter(parent *frame, n int, stacked bool) *frame {
	var f *frame
	switch {
	case !stacked:
		f = &frame{}
	case in.nframes == len(in.frames):
		f = &frame{}
		in.frames = append(in.frames, f)
		in.nframes++
	default:
		f = in.frames[in.nframes]
		in.nframes++
	}
	if cap(f.slots) < n {
		f.slots = make([]Value, n)
	}
	f.slots = f.slots[:n]
	for i := range f.slots {
		f.slots[i] = unset
	}
	f.parent = parent
	return f
}

// leave ends the scope of the frame enter returned last.
func (in *Interp) leave(stacked bool) {
	if stacked {
		in.nframes--
		f := in.frames[in.nframes]
		clear(f.slots) // pin no value
		f.parent = nil
	}
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

// lookup reads x: the innermost set slot, else the set global, else the
// builtin of that name.
func (in *Interp) lookup(x *identExpr, fr *frame) Value {
	for _, l := range x.locs {
		if v := *l.at(fr); !isUnset(v) {
			return v
		}
	}
	return in.global(x)
}

// global reads x's global, falling back to the builtin of that name.
func (in *Interp) global(x *identExpr) Value {
	if v := in.globals[x.global]; !isUnset(v) {
		return v
	}
	if x.builtin == nil {
		throw(fmt.Errorf("script: undefined variable %q", x.name))
	}
	return x.builtin
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

// charge adds to the run's Stats and ends the run with ErrBudget once
// either count passes MaxOps.
func (in *Interp) charge(ops int64, strBytes int64) {
	in.stats.Ops += ops
	in.stats.StrBytes += strBytes
	if in.stats.Ops > in.cfg.MaxOps || in.stats.StrBytes > in.cfg.MaxOps {
		throw(ErrBudget)
	}
}

// evalArgs pushes the values of args onto the interpreter's stack and
// returns them, capped so a callee cannot append into the stack, with the
// stack height below them for pop after the call. Calls made while
// evaluating an argument push and pop above it, so no call allocates an
// argument slice. Callees read their arguments only during the call: push
// copies them and a closure copies them into its frame.
func (in *Interp) evalArgs(args []evalFn, fr *frame) (vals []Value, base int) {
	base = len(in.stack)
	for _, a := range args {
		v := a(in, fr) // before reading in.stack, which a may grow
		in.stack = append(in.stack, v)
	}
	return in.stack[base:len(in.stack):len(in.stack)], base
}

// pop drops the stack above base, clearing it so it pins no value.
func (in *Interp) pop(base int) {
	clear(in.stack[base:])
	in.stack = in.stack[:base]
}

// call evaluates args and calls fnv with them.
func (in *Interp) call(fnv Value, args []evalFn, fr *frame) Value {
	vals, base := in.evalArgs(args, fr)
	var v Value
	switch fn := fnv.(type) {
	case *Closure:
		v = in.callClosure(fn, vals)
	case *builtinFn:
		v = fn.fn(in, vals)
	default:
		throw(fmt.Errorf("script: %T is not callable", fnv))
	}
	in.pop(base)
	return v
}

func (in *Interp) callClosure(fn *Closure, args []Value) Value {
	f := fn.fn
	if in.depth >= maxDepth {
		throw(fmt.Errorf("script: call stack exceeded in %s", f.name))
	}
	fr := fn.fr
	if f.size > 0 {
		fr = in.enter(fr, f.size, f.stacked)
		for i, slot := range f.slots {
			var v Value
			if i < len(args) {
				v = args[i]
			}
			fr.slots[slot] = v
		}
	}
	in.depth++
	c := runStmts(in, fr, f.body)
	in.depth--
	if f.size > 0 {
		in.leave(f.stacked)
	}
	if c != ctlReturn {
		return nil
	}
	v := in.ret
	in.ret = nil
	return v
}

// element checks that base and idx name an element of an array.
func element(base, idx Value) (*Array, int) {
	a, ok := base.(*Array)
	if !ok {
		throw(fmt.Errorf("script: cannot index %T", base))
	}
	i, ok := idx.(float64)
	if !ok || int(i) < 0 || int(i) >= len(a.Elems) {
		throw(fmt.Errorf("script: array index %v out of range (len %d)", idx, len(a.Elems)))
	}
	return a, int(i)
}

// needNumbers ends the run: operator op was given something but two
// numbers.
func needNumbers(op opcode, l, r Value) {
	throw(fmt.Errorf("script: %q needs numbers, got %T and %T", op, l, r))
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
		return "function " + v.fn.name
	case *builtinFn:
		return "function " + v.name
	case *Array:
		return "[array]"
	}
	return "[object]" // *Object, the one Value type left
}

func member(base Value, name string) Value {
	switch b := base.(type) {
	case string:
		if name == "length" {
			return num(float64(len(b)))
		}
	case *Array:
		if name == "length" {
			return num(float64(len(b.Elems)))
		}
	case *Object:
		return b.field(name)
	}
	throw(fmt.Errorf("script: no member %q on %T", name, base))
	return nil
}

// A stringMethod or arrayMethod is one method of the language; a call
// looks its name up once, when it is compiled.
type (
	stringMethod func(in *Interp, s string, args []Value) Value
	arrayMethod  func(in *Interp, a *Array, args []Value) Value
)

// method calls the method name resolved to, sm for a string receiver and
// am for an array; either is nil when the type has no method of that name.
func (in *Interp) method(recv Value, name string, sm stringMethod, am arrayMethod, args []Value) Value {
	switch r := recv.(type) {
	case string:
		if sm != nil {
			return sm(in, r, args)
		}
		throw(fmt.Errorf("script: unknown string method %q", name))
	case *Array:
		if am != nil {
			return am(in, r, args)
		}
		throw(fmt.Errorf("script: unknown array method %q", name))
	}
	throw(fmt.Errorf("script: no method %q on %T", name, recv))
	return nil
}

// chargeScan charges a string method that touches n bytes.
func (in *Interp) chargeScan(n int) { in.charge(int64(1+n/8), int64(n)) }

// argStr returns method name's argument i, which must be a string.
func argStr(name string, args []Value, i int) string {
	if i >= len(args) {
		throw(fmt.Errorf("script: %s: missing argument %d", name, i))
	}
	v, ok := args[i].(string)
	if !ok {
		throw(fmt.Errorf("script: %s: argument %d must be a string", name, i))
	}
	return v
}

// argNum returns method name's argument i, which must be a number.
func argNum(name string, args []Value, i int) int {
	if i >= len(args) {
		throw(fmt.Errorf("script: %s: missing argument %d", name, i))
	}
	v, ok := args[i].(float64)
	if !ok {
		throw(fmt.Errorf("script: %s: argument %d must be a number", name, i))
	}
	return int(v)
}

var stringMethods = map[string]stringMethod{
	"indexOf": func(in *Interp, s string, args []Value) Value {
		// A second argument is ignored (see the package doc).
		sub := argStr("indexOf", args, 0)
		in.chargeScan(len(s))
		return num(float64(strings.Index(s, sub)))
	},
	"substring": func(in *Interp, s string, args []Value) Value {
		a, b := argNum("substring", args, 0), len(s)
		if len(args) > 1 {
			b = argNum("substring", args, 1)
		}
		a, b = min(max(a, 0), len(s)), min(max(b, 0), len(s))
		if a > b {
			a, b = b, a
		}
		in.chargeScan(b - a)
		return s[a:b]
	},
	"toUpperCase": func(in *Interp, s string, _ []Value) Value {
		in.chargeScan(len(s))
		return strings.ToUpper(s)
	},
	"test": func(in *Interp, s string, args []Value) Value {
		matched, _, _ := in.execRegex(argStr("test", args, 0), s)
		return boolv(matched)
	},
	"match": func(in *Interp, s string, args []Value) Value {
		if matched, start, end := in.execRegex(argStr("match", args, 0), s); matched {
			return s[start:end]
		}
		return nil
	},
	"replace": func(in *Interp, s string, args []Value) Value {
		matched, start, end := in.execRegex(argStr("replace", args, 0), s)
		repl := argStr("replace", args, 1)
		if !matched {
			return s
		}
		in.chargeScan(len(s) + len(repl))
		return s[:start] + repl + s[end:]
	},
}

// execRegex evaluates a regex on the configured host; without one it uses
// the shared pricing memo and records nothing. Regex evaluation is charged
// separately by the host/profile layer; the interpreter only pays the
// dispatch.
func (in *Interp) execRegex(pattern, input string) (matched bool, start, end int) {
	var err error
	if in.cfg.Host != nil {
		matched, start, end, err = in.cfg.Host.ExecRegex(pattern, input)
	} else {
		var r regexPrice
		r, err = priceRegex(pattern, input, 0)
		matched, start, end = r.matched, r.start, r.end
	}
	if err != nil {
		throw(err)
	}
	return matched, start, end
}

var arrayMethods = map[string]arrayMethod{
	"push": func(in *Interp, a *Array, args []Value) Value {
		a.Elems = append(a.Elems, args...)
		return num(float64(len(a.Elems)))
	},
	"join": func(in *Interp, a *Array, args []Value) Value {
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
		in.charge(int64(len(a.Elems)), int64(total))
		// Separators are not charged, but they too must fit the budget.
		if int64(len(sep))*int64(len(a.Elems)) > in.cfg.MaxOps-in.stats.StrBytes {
			throw(ErrBudget)
		}
		return strings.Join(parts, sep)
	},
}

var builtins = map[string]Value{
	"str": &builtinFn{name: "str", fn: func(in *Interp, args []Value) Value {
		if len(args) == 0 {
			return ""
		}
		s := toStr(args[0])
		in.charge(0, int64(len(s)))
		return s
	}},
	"min": &builtinFn{name: "min", fn: func(in *Interp, args []Value) Value {
		if len(args) < 2 {
			throw(fmt.Errorf("script: min: need two numeric arguments"))
		}
		a, aok := args[0].(float64)
		b, bok := args[1].(float64)
		if !aok || !bok {
			throw(fmt.Errorf("script: min: expected numbers"))
		}
		return num(math.Min(a, b))
	}},
}
