package mobileqoe

// The dead-code gate: a name-based scan of every non-test .go file in the
// repository, perfbench, examples, scripts and cmd included. It lists
//
//   - a top-level func, method, const, var or type that no non-test file
//     names outside its own declaration;
//   - a field of a top-level struct type that no non-test file writes. A
//     write is a keyed composite-literal key, an unkeyed literal of the
//     field's type, an assignment or op=, ++/--, &x.f, an element write
//     x.f[i] = …, or a method call on x.f. JSON-tagged fields are skipped,
//     since the decoder writes them.
//
// The scan matches names, not objects, so a dead method that shares its
// name with a used one (Run, Name) passes. Every finding must be on
// deadAllow with its reason, and every entry there must still be a finding.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadAllow holds what the scan finds on purpose. A reason is
// "interface method" or "test probe: <test that needs it>".
var deadAllow = map[string]string{
	"cpu.CPU.OnlineCores":                "test probe: TestHotplugMigratesWork",
	"cpu.CPU.reference":                  "test probe: TestIncrementalMatchesFullReschedule",
	"cpu.Config.SwitchOverhead":          "test probe: TestSwitchOverheadSlowsSharedCore",
	"cpu.NoSwitchOverhead":               "test probe: TestSwitchOverheadSlowsSharedCore",
	"cpu.Thread.Executed":                "test probe: TestAccountingIndependentOfObservation",
	"cpu.Thread.Idle":                    "test probe: TestFIFOWithinThread",
	"obsflag.progressValue.IsBoolFlag":   "interface method",
	"perfbench.figures.corrupt":          "test probe: TestFiguresCheckCatchesCorruption",
	"perfbench.fleetBench.corrupt":       "test probe: TestFleetCheckCatchesCorruption",
	"perfbench.serve.corrupt":            "test probe: TestServeCheckCatchesCorruption",
	"qoesimd.server.ServeHTTP":           "interface method",
	"script.CountingHost.BacktrackLimit": "test probe: FuzzScript, FuzzCountingHost",
	"script.Interp.Global":               "test probe: TestCoreLanguage",
	"sim.Event.Fired":                    "test probe: TestModelRandomSchedules",
	"sim.Event.When":                     "test probe: TestRecycledEventFreshness",
	"telemetry.Lint":                     "test probe: TestLintRejectsMalformed",
}

func TestDeadCode(t *testing.T) {
	found, err := scanDead(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deadProblems(found, deadAllow) {
		t.Error(p)
	}
}

// TestDeadCodeFixture checks the scan itself on a tree with one uncalled
// exported function, one field nothing writes, and the uses a name-based
// scan must still see: an interface method, a method value and an unkeyed
// literal.
func TestDeadCodeFixture(t *testing.T) {
	found, err := scanDead("testdata/deadcode")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture.Point.label", "fixture.Uncalled"}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("scan found %q, want %q", found, want)
	}
	got := deadProblems(found, map[string]string{
		"fixture.Point.label": "test probe: TestDeadCodeFixture",
		"fixture.Gone":        "interface method",
	})
	want = []string{
		`dead: fixture.Uncalled (delete it, or allowlist it with a reason)`,
		`stale allowlist entry fixture.Gone: the scan no longer finds it (now used, or gone)`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems %q, want %q", got, want)
	}
	got = deadProblems(found, map[string]string{
		"fixture.Point.label": "",
		"fixture.Uncalled":    "kept",
	})
	want = []string{
		`allowlist entry fixture.Point.label: reason "" is neither "interface method" nor "test probe: <test>"`,
		`allowlist entry fixture.Uncalled: reason "kept" is neither "interface method" nor "test probe: <test>"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems %q, want %q", got, want)
	}
}

// deadProblems compares the scan's findings with an allowlist.
func deadProblems(found []string, allow map[string]string) []string {
	var out []string
	isFound := map[string]bool{}
	for _, name := range found {
		isFound[name] = true
		if _, ok := allow[name]; !ok {
			out = append(out, "dead: "+name+" (delete it, or allowlist it with a reason)")
		}
	}
	for name, reason := range allow {
		if test, ok := strings.CutPrefix(reason, "test probe: "); reason != "interface method" && (!ok || test == "") {
			out = append(out, "allowlist entry "+name+`: reason "`+reason+`" is neither "interface method" nor "test probe: <test>"`)
		}
		if !isFound[name] {
			out = append(out, "stale allowlist entry "+name+": the scan no longer finds it (now used, or gone)")
		}
	}
	sort.Strings(out)
	return out
}

// deadDecl is one top-level name, method or struct field the scan checks.
type deadDecl struct {
	name       string    // qualified: pkg.Name, pkg.Recv.Method, pkg.Type.Field
	ident      string    // the bare name uses are matched on
	pos, end   token.Pos // a top-level declaration's own extent
	field      bool
	structType string // a field's struct type name
}

// scanDead parses every non-test .go file under root, skipping testdata,
// hidden and underscore directories below it, and returns the sorted
// qualified names of what nothing uses.
func scanDead(root string) ([]string, error) {
	fset := token.NewFileSet()
	var decls []deadDecl
	uses := map[string][]token.Pos{} // name → positions of non-declaring idents
	writtenField := map[string]bool{}
	writtenType := map[string]bool{} // struct types built by an unkeyed literal

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			pkg = filepath.Base(filepath.Dir(path))
		}
		decls = append(decls, topLevelDecls(f, pkg)...)
		scanUses(f, uses, writtenField, writtenType)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var found []string
	for _, d := range decls {
		if d.field {
			if !writtenField[d.ident] && !writtenType[d.structType] {
				found = append(found, d.name)
			}
			continue
		}
		used := false
		for _, p := range uses[d.ident] {
			if p < d.pos || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			found = append(found, d.name)
		}
	}
	sort.Strings(found)
	return found, nil
}

// topLevelDecls lists a file's functions, methods, consts, vars, types and
// the non-JSON fields of its struct types. main and init are entry points,
// and _ is no name.
func topLevelDecls(f *ast.File, pkg string) []deadDecl {
	var out []deadDecl
	add := func(name string, id *ast.Ident, n ast.Node) {
		if id.Name == "_" || id.Name == "init" || (id.Name == "main" && name == pkg+".main") {
			return
		}
		out = append(out, deadDecl{name: name, ident: id.Name, pos: n.Pos(), end: n.End()})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			name := pkg + "." + decl.Name.Name
			if decl.Recv != nil && len(decl.Recv.List) == 1 {
				name = pkg + "." + typeName(decl.Recv.List[0].Type) + "." + decl.Name.Name
			}
			add(name, decl.Name, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(pkg+"."+id.Name, id, spec)
					}
				case *ast.TypeSpec:
					add(pkg+"."+spec.Name.Name, spec.Name, spec)
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
							continue
						}
						for _, id := range fld.Names {
							if id.Name == "_" {
								continue
							}
							out = append(out, deadDecl{
								name:       pkg + "." + spec.Name.Name + "." + id.Name,
								ident:      id.Name,
								field:      true,
								structType: spec.Name.Name,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// scanUses records every identifier of f that is not itself a declaration,
// and the field names and struct types f writes.
func scanUses(f *ast.File, uses map[string][]token.Pos, writtenField, writtenType map[string]bool) {
	declaring := map[*ast.Ident]bool{f.Name: true}
	declareFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, id := range fld.Names {
				declaring[id] = true
			}
		}
	}
	// writes marks the fields along an addressed operand: x.f, x.f[i],
	// x.f.g, (*x.f).
	writes := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				writtenField[x.Sel.Name] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	elided := map[*ast.CompositeLit]ast.Expr{} // a literal's type left out by its parent

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if !declaring[n] {
				uses[n.Name] = append(uses[n.Name], n.Pos())
			}
		case *ast.ImportSpec:
			if n.Name != nil {
				declaring[n.Name] = true
			}
		case *ast.FuncDecl:
			declaring[n.Name] = true
			declareFields(n.Recv)
		case *ast.FuncType:
			declareFields(n.TypeParams)
			declareFields(n.Params)
			declareFields(n.Results)
		case *ast.TypeSpec:
			declaring[n.Name] = true
			declareFields(n.TypeParams)
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.StructType:
			declareFields(n.Fields)
		case *ast.LabeledStmt:
			declaring[n.Label] = true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
					declaring[id] = true
				}
				writes(lhs)
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && n.Tok == token.DEFINE {
					declaring[id] = true
				}
			}
		case *ast.IncDecStmt:
			writes(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writes(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				writes(sel.X)
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n]
			}
			var elem, key ast.Expr
			switch t := typ.(type) {
			case *ast.ArrayType:
				elem = t.Elt
			case *ast.MapType:
				key, elem = t.Key, t.Value
			}
			structLit := elem == nil // neither an array, slice nor map literal
			elide := func(e, t ast.Expr) {
				if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil {
					elided[lit] = t
				}
			}
			for _, e := range n.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					elide(e, elem)
					if structLit && typ != nil {
						writtenType[typeName(typ)] = true
					}
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok && structLit {
					writtenField[id.Name] = true
				}
				elide(kv.Key, key)
				elide(kv.Value, elem)
			}
		}
		return true
	})
}

// typeName strips pointers, packages and type arguments from a type
// expression: *pkg.T[K] is T.
func typeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
