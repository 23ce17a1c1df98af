package cachesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are exported functions that no non-test file calls
// yet, each kept for the reason given.
var testOnlyExports = map[string]string{
	"SimulateTapeObserved":     "single-configuration observer entry point, the one-config form of MultiSimulateObserved",
	"StackDistancesPolicyTape": "generalized Mattson analysis (stack-LRU, stack-LFU), the stack-zoo differential oracle",
	"MissCurveTape":            "one miss-curve call for every zoo policy, documented in DESIGN.md",
	"CountTapeAccesses":        "Table VII's no-cache column as pure arithmetic, the cross-check on what a replay bills",
}

// TestExportedFunctionsUsed fails on any exported package-level
// function of this package that no non-test Go file references: not
// this package's own code, the commands, the examples, nor the nested
// perfbench module. An export only tests call is either dead or
// belongs in testOnlyExports with its reason.
func TestExportedFunctionsUsed(t *testing.T) {
	const importPath = "bsdtrace/internal/cachesim"
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "perfbench", "go.mod")); err != nil {
		t.Fatalf("module root not found from the package directory: %v", err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	exported := make(map[string]bool)
	used := make(map[string]bool)
	scanned := make(map[string]bool) // top-level directories seen
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		rel, _ := filepath.Rel(root, path)
		scanned[strings.Split(filepath.ToSlash(rel), "/")[0]] = true
		dir, err := filepath.Abs(filepath.Dir(path))
		if err != nil {
			return err
		}
		if dir == self {
			// This package: declarations, and bare references from its
			// own code.
			decls := make(map[*ast.Ident]bool)
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					decls[fn.Name] = true
					if fn.Recv == nil && fn.Name.IsExported() {
						exported[fn.Name.Name] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		}
		// Elsewhere: selectors on this package's import name.
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != importPath {
				continue
			}
			name := "cachesim"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"cmd", "examples", "internal", "perfbench"} {
		if !scanned[dir] {
			t.Fatalf("no Go files scanned under %s/", dir)
		}
	}

	var unused []string
	for name := range exported {
		if !used[name] && testOnlyExports[name] == "" {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("exported function %s has no reference outside tests", name)
	}
	for name := range testOnlyExports {
		if !exported[name] {
			t.Errorf("testOnlyExports lists %s, which is not an exported function", name)
		} else if used[name] {
			t.Errorf("testOnlyExports lists %s, which non-test code now calls", name)
		}
	}
}
