package dynq

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestShippedCodeIsReached holds every package that an entry point imports
// to code that an entry point can reach. The entry points are the main
// packages under cmd/, examples/ and benchmark/ (read, never edited), plus
// the declarations listed in testdata/api.txt. The test type-checks their
// non-test files with the default build tags and follows references from
// the roots. A method also counts as reached when its receiver type is
// reached and an interface method of that name and signature may call it:
// one of a shipped interface, named or anonymous, that reached code calls,
// one exported by the standard library, or one the errors package asserts
// in its function bodies. Packages that no entry point imports are test
// support and are not checked.
//
// An api.txt line is library surface that no main package calls yet, kept
// for the paper result its reason names; the exported methods of a type
// that only such a line reaches count as reached, since the caller the
// line stands for calls them. A line that a main package reaches anyway,
// or that names nothing, fails the test.
//
// Every other declaration that nothing reaches must be listed, with its
// reason, in testdata/unreached.txt. A test seam belongs there; code that
// only tests call goes, or moves into a _test.go file or a test-support
// package.
func TestShippedCodeIsReached(t *testing.T) {
	sc, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sc.loadEntries()
	if err != nil {
		t.Fatal(err)
	}
	api, err := readUnreached(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := readUnreached(filepath.Join("testdata", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	unreached, badAPI := sc.unreached(entries, api)
	var extra, stale []string
	for _, name := range unreached {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
		delete(want, name)
	}
	for name := range want {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	if len(extra) > 0 {
		t.Errorf("no entry point reaches these declarations; delete them, move them into test code, or list them with a reason in testdata/unreached.txt:\n\t%s",
			strings.Join(extra, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("testdata/unreached.txt lists declarations that are reached or gone; drop their lines:\n\t%s",
			strings.Join(stale, "\n\t"))
	}
	if len(badAPI) > 0 {
		t.Errorf("testdata/api.txt lists declarations that a main package reaches or that are gone; drop their lines:\n\t%s",
			strings.Join(badAPI, "\n\t"))
	}
}

// readUnreached reads a golden list (unreached.txt, api.txt): one
// declaration per line, then its reason. Blank lines and lines starting
// with # are skipped.
func readUnreached(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bool)
	s := bufio.NewScanner(f)
	for s.Scan() {
		line := strings.TrimSpace(s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s: %q has no reason", path, name)
		}
		out[name] = true
	}
	return out, s.Err()
}

// modulePath is the root module's import path; the nested benchmark module
// is dynq/benchmark, so every path below maps to a directory the same way.
const modulePath = "dynq"

// errorsIfaces declares the methods the errors package finds through
// anonymous interfaces inside Is, As and Unwrap, which export data does not
// carry.
const errorsIfaces = `package p

type (
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
)
`

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type reachScan struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

// loadModule type-checks every package of the module, the nested benchmark
// module included, once per test binary: the reach guard and the docs
// guards read the same scan.
var loadModule = sync.OnceValues(func() (*reachScan, error) {
	fset := token.NewFileSet()
	sc := &reachScan{fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: make(map[string]*reachPkg)}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		ipath := modulePath
		if path != "." {
			ipath += "/" + filepath.ToSlash(path)
		}
		_, err = sc.load(ipath)
		return err
	})
	return sc, err
})

// Import type-checks a module package from source and takes the standard
// library from export data.
func (sc *reachScan) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return sc.std.Import(path)
	}
	p, err := sc.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (sc *reachScan) load(path string) (*reachPkg, error) {
	if p, ok := sc.pkgs[path]; ok {
		return p, nil
	}
	dir := "."
	if path != modulePath {
		dir = filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/"))
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: sc}
	if p.pkg, err = conf.Check(path, sc.fset, p.files, p.info); err != nil {
		return nil, err
	}
	sc.pkgs[path] = p
	return p, nil
}

// loadEntries type-checks the main packages and, through their imports,
// every package they ship, and returns their paths.
func (sc *reachScan) loadEntries() ([]string, error) {
	entries := []string{modulePath + "/benchmark"}
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			entries = append(entries, modulePath+"/"+filepath.ToSlash(d))
		}
	}
	for _, path := range entries {
		if _, err := sc.load(path); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// shipped returns the main packages and every module package they import,
// directly or not.
func (sc *reachScan) shipped(entries []string) []*reachPkg {
	seen := make(map[string]bool)
	var out []*reachPkg
	var walk func(path string)
	walk = func(path string) {
		p, ok := sc.pkgs[path]
		if !ok || seen[path] {
			return
		}
		seen[path] = true
		out = append(out, p)
		for _, q := range p.pkg.Imports() {
			walk(q.Path())
		}
	}
	for _, path := range entries {
		walk(path)
	}
	return out
}

// unreached returns the declarations of the shipped packages that no root
// reaches, by name: pkg.Name, or pkg.Type.Method for a method. The roots
// are the main packages' declarations, then the api names; badAPI holds
// the api names that the main packages reach or that name nothing.
func (sc *reachScan) unreached(entries []string, api map[string]bool) (out, badAPI []string) {
	isMain := make(map[*types.Package]bool)
	for _, path := range entries {
		isMain[sc.pkgs[path].pkg] = true
	}
	shipped := sc.shipped(entries)

	refs := make(map[types.Object][]types.Object) // declaration → what it names
	methods := make(map[types.Object][]*types.Func)
	byName := make(map[string]types.Object)
	var roots, decls []types.Object
	for _, p := range shipped {
		for _, f := range p.files {
			for _, d := range f.Decls {
				declare(p.info, d, func(obj types.Object, n ast.Node) {
					if obj.Name() == "_" {
						return
					}
					refs[obj] = usesIn(p.info, n)
					decls = append(decls, obj)
					byName[declName(obj)] = obj
					fn, isFunc := obj.(*types.Func)
					switch {
					case isFunc && isMethod(fn):
						recv := recvType(fn)
						methods[recv] = append(methods[recv], fn)
					case isMain[obj.Pkg()], isFunc && obj.Name() == "init":
						roots = append(roots, obj)
					}
				})
			}
		}
	}

	std := sc.stdMethods(shipped)
	called := make(map[string][]*types.Signature) // the shipped interface methods reached code calls
	waiting := make(map[string][]*types.Func)     // methods of reached types that no rule has reached yet
	reached := make(map[types.Object]bool)
	visit := func(queue []types.Object, exported bool) {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if reached[obj] {
				continue
			}
			reached[obj] = true
			queue = append(queue, refs[obj]...)
			if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
				called[fn.Name()] = append(called[fn.Name()], fn.Type().(*types.Signature))
				for _, m := range waiting[fn.Name()] {
					if declared(called, m) {
						queue = append(queue, m)
					}
				}
			}
			for _, m := range methods[obj] {
				if isMain[m.Pkg()] || exported && m.Exported() || declared(std, m) || declared(called, m) {
					queue = append(queue, m)
				} else {
					waiting[m.Name()] = append(waiting[m.Name()], m)
				}
			}
		}
	}
	visit(roots, false)
	var apiRoots []types.Object
	for name := range api {
		obj, ok := byName[name]
		if !ok || reached[obj] {
			badAPI = append(badAPI, name)
			continue
		}
		apiRoots = append(apiRoots, obj)
	}
	visit(apiRoots, true)

	for _, obj := range decls {
		if !reached[obj] {
			out = append(out, declName(obj))
		}
	}
	sort.Strings(out)
	sort.Strings(badAPI)
	return out, badAPI
}

// declared reports whether some interface declares a method of fn's name
// and signature.
func declared(ifaces map[string][]*types.Signature, fn *types.Func) bool {
	for _, m := range ifaces[fn.Name()] {
		if satisfies(fn.Type().(*types.Signature), m) {
			return true
		}
	}
	return false
}

// satisfies reports whether a method with signature sig implements an
// interface method with signature want. A parameter or result of want that
// mentions a type parameter (a constraint such as core's queueItem) matches
// any type in its place.
func satisfies(sig, want *types.Signature) bool {
	if sig.Variadic() != want.Variadic() {
		return false
	}
	same := func(a, b *types.Tuple) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if w := b.At(i).Type(); !mentionsTypeParam(w) && !types.Identical(a.At(i).Type(), w) {
				return false
			}
		}
		return true
	}
	return same(sig.Params(), want.Params()) && same(sig.Results(), want.Results())
}

func mentionsTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return mentionsTypeParam(t.Elem())
	case *types.Slice:
		return mentionsTypeParam(t.Elem())
	case *types.Named:
		for i := range t.TypeArgs().Len() {
			if mentionsTypeParam(t.TypeArgs().At(i)) {
				return true
			}
		}
	}
	return false
}

// declare calls fn with each package-level object a declaration declares
// and the source that declares it: the function, or the object's spec. The
// names of one spec (var a, b = f()) share its source.
func declare(info *types.Info, d ast.Decl, fn func(types.Object, ast.Node)) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn(info.Defs[d.Name], d)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				fn(info.Defs[s.Name], s)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					fn(info.Defs[n], s)
				}
			}
		}
	}
}

// usesIn returns every object that a declaration's source names, with
// generic instances mapped to their declarations.
func usesIn(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isMethod(fn *types.Func) bool { return fn.Type().(*types.Signature).Recv() != nil }

// isInterfaceMethod reports whether fn is declared by an interface, so
// that calling it calls whatever method implements it.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// recvType is the type name a method is declared on.
func recvType(fn *types.Func) types.Object {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

func declName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && isMethod(fn) {
		return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), recvType(fn).Name(), obj.Name())
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// stdMethods indexes by name the methods of every interface the standard
// library exports and the errors package asserts.
func (sc *reachScan) stdMethods(shipped []*reachPkg) map[string][]*types.Signature {
	out := make(map[string][]*types.Signature)
	add := func(it *types.Interface) {
		for i := range it.NumMethods() {
			m := it.Method(i)
			out[m.Name()] = append(out[m.Name()], m.Type().(*types.Signature))
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var walkStd func(*types.Package)
	walkStd = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ok := sc.pkgs[p.Path()]; !ok {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						add(it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walkStd(q)
		}
	}
	extra, err := parser.ParseFile(sc.fset, "errors_ifaces.go", errorsIfaces, 0)
	if err != nil {
		panic(err)
	}
	errs, err := new(types.Config).Check("p", sc.fset, []*ast.File{extra}, nil)
	if err != nil {
		panic(err)
	}
	walkStd(errs)
	for _, p := range shipped {
		walkStd(p.pkg)
	}
	return out
}
