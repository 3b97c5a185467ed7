package oovr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stdInterfaceMethods are method names that standard-library code calls
// through an interface (fmt, errors, encoding/json, net/http), so a
// method with one of these names needs no caller in the repository.
var stdInterfaceMethods = map[string]bool{
	"Error":         true,
	"String":        true,
	"Unwrap":        true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"ServeHTTP":     true,
}

// testWindows are exported internal/ accessors kept only because a test
// in another package reads an invariant that stays through them. The
// list may only shrink: an entry that is deleted, or that gains a
// non-test reader, fails TestNoTestOnlyExportedAPI until it is removed.
var testWindows = map[string]string{
	"mem.Traffic.LinkBytes":     "TestRoutedLinkBytesInvariant compares per-link server bytes with pair bytes times route length",
	"mem.System.NumSegments":    "the multigpu copy tests check that a copy registers no segment",
	"obs.Timeline.Lanes":        "the experiments lane test checks the recorded lanes of a run",
	"obs.Timeline.Fingerprint":  "the timeline golden tests pin the trace-event bytes by this digest",
	"stats.Figure.SeriesByName": "the experiments trend tests read figure series by name",
}

// TestNoTestOnlyExportedAPI fails when an exported function or method
// under internal/ has no reference from a non-test file of the
// repository, bench/ included, unless testWindows names it.
func TestNoTestOnlyExportedAPI(t *testing.T) {
	start := time.Now()
	found, err := testOnlyExportedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range windowProblems(found, testWindows) {
		t.Error(p)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("scan took %v, want under a second", d)
	}
}

func TestDeadAPIScannerFixture(t *testing.T) {
	found, err := testOnlyExportedAPI("testdata/deadapi")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p.TestOnly"}; !slices.Equal(found, want) {
		t.Fatalf("found %q, want %q", found, want)
	}
	if p := windowProblems(found, map[string]string{"p.TestOnly": "kept"}); len(p) != 0 {
		t.Fatalf("a live window is reported: %q", p)
	}
	// A window that gained a non-test reader, and one whose function is
	// gone, both fail, so the list can only shrink.
	for _, stale := range []string{"p.Used", "p.Gone"} {
		p := windowProblems(found, map[string]string{"p.TestOnly": "kept", stale: "stale"})
		if len(p) != 1 || !strings.Contains(p[0], stale) {
			t.Errorf("window %s: problems %q, want one naming it", stale, p)
		}
	}
}

// windowProblems lists each test-only name that windows does not allow,
// and each window that is no longer test-only.
func windowProblems(found []string, windows map[string]string) []string {
	var out []string
	for _, name := range found {
		if _, ok := windows[name]; !ok {
			out = append(out, name+" is exported but only tests reach it: delete it, or unexport it if its package still uses it")
		}
	}
	for name := range windows {
		if !slices.Contains(found, name) {
			out = append(out, "test window "+name+" is gone or has a non-test reader: remove it from testWindows")
		}
	}
	slices.Sort(out)
	return out
}

// exportedDecl is an exported function or method declared in a non-test
// file under internal/.
type exportedDecl struct {
	dir, pkg string // directory relative to root, and package name
	recv     string // receiver type name, empty for a function
	name     string
	ident    *ast.Ident
}

// parsedFile is a non-test file and its directory relative to root.
type parsedFile struct {
	f   *ast.File
	dir string
}

// testOnlyExportedAPI parses every non-test Go file under root, skipping
// testdata and hidden directories, and returns the exported internal/
// functions and methods that none of them references, as "pkg.Func" or
// "pkg.Type.Method", sorted. A function counts as referenced by its
// name inside its own directory, or as a selector on its package's
// import name elsewhere. Without type information a method counts as
// referenced by any selector of its name.
func testOnlyExportedAPI(root string) ([]string, error) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	var files []parsedFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files = append(files, parsedFile{f, rel})
		if rel != "internal" && !strings.HasPrefix(rel, "internal/") {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			e := exportedDecl{dir: rel, pkg: f.Name.Name, name: fn.Name.Name, ident: fn.Name}
			if fn.Recv != nil {
				e.recv = receiverName(fn.Recv.List[0].Type)
				if stdInterfaceMethods[e.name] {
					continue
				}
			}
			decls = append(decls, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	selectors := map[string]bool{} // every selector name
	qualified := map[string]bool{} // "dir.Name" for pkg.Name through an import
	local := map[string]bool{}     // "dir.Name" for a bare identifier in dir
	skip := map[*ast.Ident]bool{}  // declaring names and selected names
	for _, e := range decls {
		skip[e.ident] = true
	}
	for _, pf := range files {
		// The module path is one element, so an import's directory under
		// root is its path after the first slash. Standard-library paths
		// map to directories outside internal/, which declare nothing.
		imports := map[string]string{} // local name -> directory under root
		for _, spec := range pf.f.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value)
			_, dir, ok := strings.Cut(ipath, "/")
			if !ok {
				continue
			}
			name := path.Base(ipath)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(pf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						qualified[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					local[pf.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var out []string
	for _, e := range decls {
		key := e.dir + "." + e.name
		if e.recv != "" {
			if selectors[e.name] {
				continue
			}
			out = append(out, e.pkg+"."+e.recv+"."+e.name)
			continue
		}
		if qualified[key] || local[key] {
			continue
		}
		out = append(out, e.pkg+"."+e.name)
	}
	slices.Sort(out)
	return out, nil
}

// receiverName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func receiverName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
