package script

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Value is a runtime value: float64, string, bool, nil, *Array, *Object,
// *Closure, or builtinFn.
type Value any

// Array is a mutable array value (reference semantics, like JS).
type Array struct{ Elems []Value }

// Object is a mutable string-keyed map value.
type Object struct{ Fields map[string]Value }

// Closure is a user-defined function.
type Closure struct {
	params []string
	body   []stmt
	env    *env
	name   string
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

// Stats summarizes an execution's cost in engine-neutral units.
type Stats struct {
	Ops      int64 // interpreter operations (AST evaluations)
	StrBytes int64 // bytes touched by string/array operations
}

// Config parameterizes an interpreter run.
type Config struct {
	Host     RegexHost // nil = regexes evaluated with the package's own default
	MaxOps   int64     // execution budget; default 50M
	MaxDepth int       // call-stack limit; default 200
}

// Interp executes Programs. One Interp may run several programs in sequence
// (globals persist), which is how a page's scripts share state.
type Interp struct {
	cfg     Config
	globals *env
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
	in := &Interp{cfg: cfg, globals: &env{}}
	return in
}

// Stats returns cumulative execution statistics.
func (in *Interp) Stats() Stats { return in.stats }

// Global returns a global variable's value (nil when unset), letting tests
// and workload builders inspect script results.
func (in *Interp) Global(name string) Value {
	v, _ := in.globals.get(name)
	return v
}

// SetGlobal pre-sets a global (page scripts receive their input data this
// way).
func (in *Interp) SetGlobal(name string, v Value) { in.globals.define(name, v) }

// Run executes a program to completion.
func (in *Interp) Run(p *Program) error {
	_, err := in.execBlock(p.stmts, in.globals)
	if err != nil && !errors.Is(err, errReturnSignal) {
		return err
	}
	return nil
}

// env is one scope. Most block scopes declare nothing, so vars stays nil
// until the first define; get and set read a nil map as empty.
type env struct {
	vars   map[string]Value
	parent *env
}

// define binds name in this scope itself.
func (e *env) define(name string, v Value) {
	if e.vars == nil {
		e.vars = map[string]Value{}
	}
	e.vars[name] = v
}

func (e *env) get(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *env) set(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
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
	if in.stats.Ops > in.cfg.MaxOps {
		return ErrBudget
	}
	return nil
}

func (in *Interp) execBlock(stmts []stmt, e *env) (*returnValue, error) {
	for _, s := range stmts {
		rv, err := in.exec(s, e)
		if err != nil {
			return rv, err
		}
	}
	return nil, nil
}

func (in *Interp) exec(s stmt, e *env) (*returnValue, error) {
	if err := in.charge(1, 0); err != nil {
		return nil, err
	}
	switch s := s.(type) {
	case *varStmt:
		var v Value
		if s.init != nil {
			var err error
			v, err = in.eval(s.init, e)
			if err != nil {
				return nil, err
			}
		}
		e.define(s.name, v)
		return nil, nil
	case *assignStmt:
		return nil, in.assign(s, e)
	case *ifStmt:
		c, err := in.eval(s.cond, e)
		if err != nil {
			return nil, err
		}
		body := s.then
		if !truthy(c) {
			body = s.alt
		}
		return in.execBlock(body, &env{parent: e})
	case *whileStmt:
		for {
			c, err := in.eval(s.cond, e)
			if err != nil {
				return nil, err
			}
			if !truthy(c) {
				return nil, nil
			}
			rv, err := in.execBlock(s.body, &env{parent: e})
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
		fe := &env{parent: e}
		if s.init != nil {
			if _, err := in.exec(s.init, fe); err != nil {
				return nil, err
			}
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
			rv, err := in.execBlock(s.body, &env{parent: fe})
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
		e.define(s.name, &Closure{params: s.params, body: s.body, env: e, name: s.name})
		return nil, nil
	case *returnStmt:
		var v Value
		if s.value != nil {
			var err error
			v, err = in.eval(s.value, e)
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
		_, err := in.eval(s.e, e)
		return nil, err
	}
	return nil, fmt.Errorf("script: unknown statement %T", s)
}

func (in *Interp) assign(s *assignStmt, e *env) error {
	v, err := in.eval(s.value, e)
	if err != nil {
		return err
	}
	if s.op != "=" {
		old, err := in.evalTarget(s.target, e)
		if err != nil {
			return err
		}
		v, err = in.binop(strings.TrimSuffix(s.op, "="), old, v)
		if err != nil {
			return err
		}
	}
	switch t := s.target.(type) {
	case *identExpr:
		if !e.set(t.name, v) {
			// Implicit global, like sloppy-mode JS.
			in.globals.define(t.name, v)
		}
		return nil
	case *indexExpr:
		base, err := in.eval(t.base, e)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.idx, e)
		if err != nil {
			return err
		}
		return in.setIndexValue(base, idx, v)
	case *memberExpr:
		base, err := in.eval(t.base, e)
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

func (in *Interp) evalTarget(t expr, e *env) (Value, error) { return in.eval(t, e) }

// indexValue implements base[idx] for both execution engines.
func (in *Interp) indexValue(base, idx Value) (Value, error) {
	switch b := base.(type) {
	case *Array:
		i, ok := idx.(float64)
		if !ok || int(i) < 0 || int(i) >= len(b.Elems) {
			return nil, fmt.Errorf("script: array index %v out of range (len %d)", idx, len(b.Elems))
		}
		return b.Elems[int(i)], nil
	case *Object:
		return b.Fields[toStr(idx)], nil
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

// setIndexValue implements base[idx] = v for both execution engines.
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
		b.Fields[toStr(idx)] = v
		return nil
	}
	return fmt.Errorf("script: cannot index %T", base)
}

func (in *Interp) eval(x expr, e *env) (Value, error) {
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
		v, ok := e.get(x.name)
		if !ok {
			if b, ok := builtins[x.name]; ok {
				return b, nil
			}
			return nil, fmt.Errorf("script: undefined variable %q", x.name)
		}
		return v, nil
	case *arrayLit:
		a := &Array{Elems: make([]Value, 0, len(x.elems))}
		for _, el := range x.elems {
			v, err := in.eval(el, e)
			if err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, v)
		}
		return a, nil
	case *objectLit:
		o := &Object{Fields: map[string]Value{}}
		for i, k := range x.keys {
			v, err := in.eval(x.vals[i], e)
			if err != nil {
				return nil, err
			}
			o.Fields[k] = v
		}
		return o, nil
	case *unaryExpr:
		v, err := in.eval(x.e, e)
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
		if x.op == "&&" || x.op == "||" {
			l, err := in.eval(x.l, e)
			if err != nil {
				return nil, err
			}
			if x.op == "&&" && !truthy(l) {
				return l, nil
			}
			if x.op == "||" && truthy(l) {
				return l, nil
			}
			return in.eval(x.r, e)
		}
		l, err := in.eval(x.l, e)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(x.r, e)
		if err != nil {
			return nil, err
		}
		return in.binop(x.op, l, r)
	case *indexExpr:
		base, err := in.eval(x.base, e)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(x.idx, e)
		if err != nil {
			return nil, err
		}
		return in.indexValue(base, idx)
	case *memberExpr:
		base, err := in.eval(x.base, e)
		if err != nil {
			return nil, err
		}
		return in.member(base, x.name)
	case *callExpr:
		// Method calls need the receiver.
		if m, ok := x.fn.(*memberExpr); ok {
			recv, err := in.eval(m.base, e)
			if err != nil {
				return nil, err
			}
			if _, isObj := recv.(*Object); !isObj {
				args, err := in.evalArgs(x.args, e)
				if err != nil {
					return nil, err
				}
				return in.method(recv, m.name, args)
			}
		}
		fnv, err := in.eval(x.fn, e)
		if err != nil {
			return nil, err
		}
		args, err := in.evalArgs(x.args, e)
		if err != nil {
			return nil, err
		}
		return in.call(fnv, args)
	}
	return nil, fmt.Errorf("script: unknown expression %T", x)
}

func (in *Interp) evalArgs(args []expr, e *env) ([]Value, error) {
	out := make([]Value, 0, len(args))
	for _, a := range args {
		v, err := in.eval(a, e)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (in *Interp) call(fnv Value, args []Value) (Value, error) {
	switch fn := fnv.(type) {
	case *Closure:
		if in.depth >= in.cfg.MaxDepth {
			return nil, fmt.Errorf("script: call stack exceeded in %s", fn.name)
		}
		in.depth++
		defer func() { in.depth-- }()
		fe := &env{parent: fn.env}
		for i, p := range fn.params {
			var v Value
			if i < len(args) {
				v = args[i]
			}
			fe.define(p, v)
		}
		rv, err := in.execBlock(fn.body, fe)
		if err != nil && !errors.Is(err, errReturnSignal) {
			return nil, err
		}
		if rv != nil {
			return rv.v, nil
		}
		return nil, nil
	case builtinFn:
		return fn.fn(in, args)
	}
	return nil, fmt.Errorf("script: %T is not callable", fnv)
}

func (in *Interp) binop(op string, l, r Value) (Value, error) {
	if op == "+" {
		ls, lok := l.(string)
		rs, rok := r.(string)
		if lok || rok {
			if !lok {
				ls = toStr(l)
			}
			if !rok {
				rs = toStr(r)
			}
			if err := in.charge(0, int64(len(ls)+len(rs))); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
	}
	switch op {
	case "==":
		return boolv(valueEq(l, r)), nil
	case "!=":
		return boolv(!valueEq(l, r)), nil
	}
	// String comparison.
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case "<":
				return boolv(ls < rs), nil
			case "<=":
				return boolv(ls <= rs), nil
			case ">":
				return boolv(ls > rs), nil
			case ">=":
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
	case "+":
		return num(ln + rn), nil
	case "-":
		return num(ln - rn), nil
	case "*":
		return num(ln * rn), nil
	case "/":
		if rn == 0 {
			return math.Inf(int(math.Copysign(1, ln))), nil
		}
		return num(ln / rn), nil
	case "%":
		if rn == 0 {
			return math.NaN(), nil
		}
		return num(math.Mod(ln, rn)), nil
	case "<":
		return boolv(ln < rn), nil
	case "<=":
		return boolv(ln <= rn), nil
	case ">":
		return boolv(ln > rn), nil
	case ">=":
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
	case *Array:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = toStr(e)
		}
		return strings.Join(parts, ",")
	case *Object:
		return "[object]"
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
			parts[i] = toStr(e)
			total += len(parts[i])
		}
		if err := in.charge(int64(len(a.Elems)), int64(total)); err != nil {
			return nil, err
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
	"parseInt": builtinFn{name: "parseInt", fn: func(in *Interp, args []Value) (Value, error) {
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
	"str": builtinFn{name: "str", fn: func(in *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s := toStr(args[0])
		return s, in.charge(0, int64(len(s)))
	}},
	"abs":   builtinFn{name: "abs", fn: num1(math.Abs)},
	"floor": builtinFn{name: "floor", fn: num1(math.Floor)},
	"ceil":  builtinFn{name: "ceil", fn: num1(math.Ceil)},
	"sqrt":  builtinFn{name: "sqrt", fn: num1(math.Sqrt)},
	"min":   builtinFn{name: "min", fn: num2(math.Min)},
	"max":   builtinFn{name: "max", fn: num2(math.Max)},
	"len": builtinFn{name: "len", fn: func(in *Interp, args []Value) (Value, error) {
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
	"keys": builtinFn{name: "keys", fn: func(in *Interp, args []Value) (Value, error) {
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
