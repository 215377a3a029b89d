package mobileqoe

// The dead-code gate type-checks every non-test package in the repository,
// perfbench, examples, scripts and cmd included, and resolves each
// identifier to the object it names. It lists
//
//   - a package-level func, var, const or type that nothing uses outside
//     its own declaration;
//   - a method that nothing uses outside its own declaration, unless its
//     name and signature match a method of some loaded interface type;
//   - a field of a package-level struct type that nothing reads. The left
//     side of =, op= and ++/-- and the key of a keyed literal only write a
//     field; any other use reads it, &x.f, x.f[i] = … and x.f.M() included.
//     The fields of a struct used as a map key or as a comparable type
//     argument are read by every comparison. JSON-tagged fields are
//     skipped, and so are embedded ones, which are read through what they
//     promote.
//
// Every finding must be on deadAllow with its reason, and every entry there
// must still be a finding.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadAllow holds what the scan finds on purpose. A reason is "interface
// method", "read by encoding/json" or "test probe: <test that needs it>".
var deadAllow = map[string]string{
	"cpu.CPU.OnlineCores":              "test probe: TestHotplugMigratesWork",
	"cpu.NoSwitchOverhead":             "test probe: TestSwitchOverheadSlowsSharedCore",
	"cpu.Thread.Executed":              "test probe: TestAccountingIndependentOfObservation",
	"cpu.Thread.Idle":                  "test probe: TestFIFOWithinThread",
	"engine.Job.Wait":                  "test probe: TestIdentityManifest",
	"experiments.Run":                  "test probe: TestSingleTrialMatchesDirectRun",
	"netsim.Network.packets":           "test probe: TestPacketPoolUnderFaults",
	"obsflag.progressValue.IsBoolFlag": "interface method",
	"script.Interp.Global":             "test probe: TestCoreLanguage",
	"script.RegexCall.BTSteps":         "test probe: TestProfileTotalsMatchRecordedCalls",
	"script.RegexCall.InputLen":        "test probe: TestProfileTotalsMatchRecordedCalls",
	"script.RegexCall.Matched":         "test probe: TestRegexMemoParity",
	"script.RegexCall.Pattern":         "test probe: TestRegexMemoParity",
	"script.RegexCall.PikeSteps":       "test probe: TestProfileTotalsMatchRecordedCalls",
	"sim.Event.Fired":                  "test probe: TestModelRandomSchedules",
	"sim.Event.When":                   "test probe: TestRecycledEventFreshness",
	"telemetry.Lint":                   "test probe: TestLintRejectsMalformed",
}

func TestDeadCode(t *testing.T) {
	found, err := scanDead(".", "mobileqoe")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deadProblems(found, deadAllow) {
		t.Error(p)
	}
}

// TestDeadCodeFixture checks the scan itself on a two-package tree. It must
// report an uncalled function, an uncalled method named like a called one,
// and fields that are only written. It must pass a method reached only
// through an interface, the fields of a map key and of a comparable type
// argument, and a JSON-tagged field.
func TestDeadCodeFixture(t *testing.T) {
	found, err := scanDead("testdata/deadcode", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture.Point.hits", "fixture.Point.label", "fixture.Uncalled", "fixture.size.Scale"}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("scan found %q, want %q", found, want)
	}
	got := deadProblems(found, map[string]string{
		"fixture.Point.hits":  "read by encoding/json",
		"fixture.Point.label": "test probe: TestDeadCodeFixture",
		"fixture.size.Scale":  "interface method",
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
		"fixture.Point.hits":  "test probe: TestDeadCodeFixture",
		"fixture.Point.label": "",
		"fixture.Uncalled":    "kept",
		"fixture.size.Scale":  "interface method",
	})
	want = []string{
		`allowlist entry fixture.Point.label: reason "" is not "interface method", "read by encoding/json" or "test probe: <test>"`,
		`allowlist entry fixture.Uncalled: reason "kept" is not "interface method", "read by encoding/json" or "test probe: <test>"`,
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
		test, probe := strings.CutPrefix(reason, "test probe: ")
		if reason != "interface method" && reason != "read by encoding/json" && (!probe || test == "") {
			out = append(out, "allowlist entry "+name+`: reason "`+reason+`" is not "interface method", "read by encoding/json" or "test probe: <test>"`)
		}
		if !isFound[name] {
			out = append(out, "stale allowlist entry "+name+": the scan no longer finds it (now used, or gone)")
		}
	}
	sort.Strings(out)
	return out
}

// scanDead type-checks every non-test package under root, skipping
// testdata, hidden and underscore directories below it, with module as the
// import path of root. It returns the sorted qualified names of what
// nothing uses: pkg.Name, pkg.Type.Method or pkg.Type.Field, where a main
// package is named after its directory.
func scanDead(root, module string) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → parsed files
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ipath := path.Join(module, filepath.ToSlash(rel))
		files[ipath] = append(files[ipath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Check the packages in dependency order into one shared Info, so a use
	// in any package resolves to the object its declaring package made.
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	checked := map[string]*types.Package{}
	std := importer.Default()
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		return std.Import(p)
	})}
	var check func(ipath string) error
	check = func(ipath string) error {
		if _, ok := checked[ipath]; ok {
			return nil
		}
		for _, f := range files[ipath] {
			for _, imp := range f.Imports {
				dep, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := files[dep]; ok {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		pkg, err := conf.Check(ipath, fset, files[ipath], info)
		checked[ipath] = pkg
		return err
	}
	paths := make([]string, 0, len(files))
	for ipath := range files {
		paths = append(paths, ipath)
	}
	sort.Strings(paths)
	for _, ipath := range paths {
		if err := check(ipath); err != nil {
			return nil, err
		}
	}

	// The objects the scan checks, each with its qualified name and the
	// extent of its own declaration.
	type decl struct {
		name     string
		pos, end token.Pos
	}
	decls := map[types.Object]decl{}
	for _, ipath := range paths {
		pkg := checked[ipath]
		prefix := pkg.Name() + "."
		if pkg.Name() == "main" {
			prefix = path.Base(ipath) + "."
		}
		add := func(id *ast.Ident, n ast.Node) {
			obj := info.Defs[id]
			if id.Name == "_" || id.Name == "init" || (id.Name == "main" && pkg.Name() == "main") {
				return
			}
			name := prefix + id.Name
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				name = prefix + recvName(fn) + "." + id.Name
			}
			decls[obj] = decl{name, n.Pos(), n.End()}
		}
		for _, f := range files[ipath] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, spec)
							}
						case *ast.TypeSpec:
							add(spec.Name, spec)
							if _, ok := spec.Type.(*ast.StructType); !ok || spec.Assign != 0 {
								continue
							}
							st := info.Defs[spec.Name].Type().Underlying().(*types.Struct)
							for i := 0; i < st.NumFields(); i++ {
								fld := st.Field(i)
								if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok || fld.Embedded() || fld.Name() == "_" {
									continue
								}
								decls[fld] = decl{name: prefix + spec.Name.Name + "." + fld.Name()}
							}
						}
					}
				}
			}
		}
	}

	// A field is written, not read, where it is the whole left side of an
	// assignment or ++/--, or the key of a keyed struct literal.
	written := map[*ast.Ident]bool{}
	writes := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, ipath := range paths {
		for _, f := range files[ipath] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes(lhs)
					}
				case *ast.IncDecStmt:
					writes(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if v, ok := obj.(*types.Var); ok && v.IsField() && written[id] {
			continue
		}
		if d, ok := decls[obj]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue
		}
		used[obj] = true
	}

	// Comparing a struct reads every field: mark those of map keys and of
	// comparable type arguments.
	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				used[u.Field(i).Origin()] = true
				compared(u.Field(i).Type())
			}
		case *types.Array:
			compared(u.Elem())
		}
	}
	ifaces := map[string][]*types.Signature{} // interface method name → signatures
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				ifaces[m.Name()] = append(ifaces[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			compared(m.Key())
		}
		addIface(tv.Type)
	}
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch t := inst.Type.(type) {
		case *types.Named:
			tparams = t.Origin().TypeParams()
		case *types.Signature:
			if fn, ok := info.Uses[id].(*types.Func); ok {
				tparams = fn.Origin().Type().(*types.Signature).TypeParams()
			}
		}
		for i := 0; i < tparams.Len(); i++ {
			if tparams.At(i).Constraint().Underlying().(*types.Interface).IsComparable() {
				compared(inst.TypeArgs.At(i))
			}
		}
	}
	// Every named interface of every loaded package, the standard library
	// included, can call a method it matches.
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range checked {
		visit(pkg)
	}
	implements := func(fn *types.Func) bool {
		for _, sig := range ifaces[fn.Name()] {
			if types.Identical(sig, fn.Type()) {
				return true
			}
		}
		return false
	}

	var found []string
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && implements(fn) {
			continue
		}
		found = append(found, d.name)
	}
	sort.Strings(found)
	return found, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of an instantiated generic method or field to the
// object its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName is the name of a method's receiver type: T for *T and T[K].
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}
