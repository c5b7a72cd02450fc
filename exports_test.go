package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowed names the functions under internal/ that no non-test
// file calls but that stay in the program, each with the reason. Keys are
// "<package dir under internal/>.<Func>" or "<dir>.<Type>.<Method>".
var unreferencedAllowed = map[string]string{
	"connectivity.Conn.Touching": "brute-force ghost oracle that core's tests call across packages",
	"trace.Tracer.Phase":         "per-phase span totals that the tests of six packages read",
}

// interfaceMethods are method names that the standard library calls
// through an interface (fmt.Stringer, error, json.Marshaler and
// json.Unmarshaler), so a method of that name needs no call site.
var interfaceMethods = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

// TestOnlyCalledFunctions fails when a function or method under internal/
// is named by no non-test file outside its own declaration (cmd/,
// examples/ and bench/ count as callers), unless unreferencedAllowed lists
// it; it also fails on allow-list entries that have become referenced or
// no longer exist.
func TestOnlyCalledFunctions(t *testing.T) {
	problems, err := unreferencedFuncs(".", unreferencedAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestUnreferencedFuncsScan plants one function no file names, one only a
// _test.go names, and one stale allow-list entry in a synthetic module, and
// checks that the scan reports exactly those three.
func TestUnreferencedFuncsScan(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"internal/a/a.go": `package a

type T struct{}

func Used() int     { return helper() }
func helper() int   { return 1 }
func Dead() int     { return Dead() }
func OnlyTested()   {}
func (T) Called()   {}
func (T) String() string { return "" }
func Kept()         {}
func Stale()        {}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestOnly(t *testing.T) { OnlyTested() }
`,
		"cmd/x/main.go": `package main

import "synth/internal/a"

func main() { _ = a.Used(); a.T{}.Called(); a.Stale() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allowed := map[string]string{"a.Kept": "kept on purpose", "a.Stale": "no longer true"}
	got, err := unreferencedFuncs(root, allowed)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go: a.Dead is named by no non-test file",
		"internal/a/a.go: a.OnlyTested is named by no non-test file",
		"unreferencedAllowed: a.Stale is referenced; remove it from the allow-list",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// funcDecl is one function or method declared in a non-test file under
// internal/.
type funcDecl struct {
	key, file  string
	importPath string
	recv, name string
	decl       *ast.FuncDecl
}

// unreferencedFuncs scans the module rooted at root and returns, sorted,
// one line per function under internal/ that no non-test file names and
// the allow-list does not cover, and one per allow-list entry that is
// referenced or not declared.
func unreferencedFuncs(root string, allowed map[string]string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type parsed struct {
		file       *ast.File
		importPath string
	}
	var files []parsed
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
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
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		files = append(files, parsed{f, module + "/" + filepath.ToSlash(rel)})
		return nil
	})
	if err != nil {
		return nil, err
	}

	internal := module + "/internal/"
	var decls []funcDecl
	for _, p := range files {
		if !strings.HasPrefix(p.importPath, internal) {
			continue
		}
		dir := strings.TrimPrefix(p.importPath, internal)
		for _, d := range p.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn := funcDecl{file: fset.Position(fd.Pos()).Filename, importPath: p.importPath, name: fd.Name.Name, decl: fd}
			fn.key = dir + "." + fn.name
			if fd.Recv != nil {
				if interfaceMethods[fn.name] {
					continue
				}
				fn.recv = recvTypeName(fd.Recv.List[0].Type)
				fn.key = dir + "." + fn.recv + "." + fn.name
			}
			decls = append(decls, fn)
		}
	}

	// A method is referenced by any selector of its name; a function by
	// its bare name inside its own package or by pkg.Name elsewhere. Uses
	// inside the function's own declaration do not count.
	byName := make(map[string][]*funcDecl)
	for i := range decls {
		byName[decls[i].name] = append(byName[decls[i].name], &decls[i])
	}
	referenced := make(map[string]bool)
	for _, p := range files {
		imports := make(map[string]string) // local name -> import path
		for _, imp := range p.file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		for _, d := range p.file.Decls {
			enclosing, _ := d.(*ast.FuncDecl)
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					for _, fn := range byName[x.Sel.Name] {
						if fn.decl == enclosing {
							continue
						}
						if id, ok := x.X.(*ast.Ident); fn.recv != "" || ok && imports[id.Name] == fn.importPath {
							referenced[fn.key] = true
						}
					}
					ast.Inspect(x.X, visit) // not x.Sel: it names a field or method
					return false
				case *ast.Ident:
					for _, fn := range byName[x.Name] {
						if fn.recv == "" && fn.importPath == p.importPath && fn.decl != enclosing {
							referenced[fn.key] = true
						}
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}

	var problems []string
	declared := make(map[string]bool)
	for _, fn := range decls {
		declared[fn.key] = true
		if !referenced[fn.key] && allowed[fn.key] == "" {
			rel, _ := filepath.Rel(root, fn.file)
			problems = append(problems, fmt.Sprintf("%s: %s is named by no non-test file", filepath.ToSlash(rel), fn.key))
		}
	}
	for key := range allowed {
		switch {
		case !declared[key]:
			problems = append(problems, fmt.Sprintf("unreferencedAllowed: %s is not declared; remove it from the allow-list", key))
		case referenced[key]:
			problems = append(problems, fmt.Sprintf("unreferencedAllowed: %s is referenced; remove it from the allow-list", key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// recvTypeName returns T for a receiver of type T, *T, T[P] or *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
