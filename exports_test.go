package bsdtrace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are exported functions of internal packages that no
// non-test file references, keyed by package (its path under internal/)
// and name. Each is kept for the reason given.
var testOnlyExports = map[string]string{
	"cachesim.SimulateTapeObserved":     "single-configuration observer entry point, the one-config form of MultiSimulateObserved",
	"cachesim.StackDistancesPolicyTape": "generalized Mattson analysis (stack-LRU, stack-LFU), the stack-zoo differential oracle",
	"cachesim.MissCurveTape":            "one miss-curve call for every zoo policy, documented in DESIGN.md",
	"cachesim.CountTapeAccesses":        "Table VII's no-cache column as pure arithmetic, the cross-check on what a replay bills",
	"trace.Validate":                    "test helper: validates an in-memory trace for tests in several packages",
	"trace.ReadFile":                    "test helper: decodes a binary trace file for tests in several packages",
	"trace.ReadSource":                  "test helper: drains a Source into memory for tests in several packages",
	"fault.Retry":                       "chaos-soak infrastructure: the client retry loop of the fstraced soak",
	"fault.NewFaultyListener":           "chaos-soak infrastructure: the fault-injecting listener of the fstraced soak",
	"dist.NewEmpirical":                 "calibration sampler the workload model does not use; its removal, with the test cases that cover it, is left to a change of its own",
	"dist.NewWeighted":                  "weighted chooser the workload model does not use; its removal, with the test cases that cover it, is left to a change of its own",
}

// testHelperPackages are internal packages that exist for tests: their
// exports are not gated, and their references do not count as uses.
var testHelperPackages = map[string]bool{
	"trace/sourcetest":      true,
	"cachesim/replacertest": true,
	"trace/adapt/adapttest": true,
}

// goFile is one parsed non-test Go file and the internal package it
// belongs to ("" outside internal/).
type goFile struct {
	f   *ast.File
	pkg string
}

// TestExportedFunctionsUsed fails on any exported package-level function
// of an internal package that no non-test Go file references: not its
// own package's code, the other packages, the commands, the examples,
// nor the nested perfbench module. An export only tests call is either
// dead or belongs in testOnlyExports with its reason.
func TestExportedFunctionsUsed(t *testing.T) {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		t.Fatalf("test must run from the module root: %v", err)
	}
	fset := token.NewFileSet()
	var files []goFile
	scanned := make(map[string]bool) // top-level directories seen
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		slash := filepath.ToSlash(p)
		scanned[strings.Split(slash, "/")[0]] = true
		var pkg string
		if rest, ok := strings.CutPrefix(path.Dir(slash), "internal/"); ok {
			pkg = rest
		}
		files = append(files, goFile{f, pkg})
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

	exported := make(map[string]bool) // "pkg.Func"
	used := make(map[string]bool)
	for _, gf := range files {
		if gf.pkg == "" || testHelperPackages[gf.pkg] {
			continue
		}
		for _, decl := range gf.f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				exported[gf.pkg+"."+fn.Name.Name] = true
			}
		}
	}
	for _, gf := range files {
		if testHelperPackages[gf.pkg] {
			continue
		}
		// Imported internal packages by the name this file uses.
		imports := make(map[string]string)
		for _, imp := range gf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rest, ok := strings.CutPrefix(p, "bsdtrace/internal/")
			if !ok {
				continue
			}
			name := path.Base(rest)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rest
		}
		visit := inspectUses(gf, imports, used)
		for _, decl := range gf.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(decl, visit)
				continue
			}
			// A declared name is not a use; its signature and body may
			// hold some.
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
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
	for name, reason := range testOnlyExports {
		switch {
		case !exported[name]:
			t.Errorf("testOnlyExports lists %s, which is not an exported function", name)
		case used[name]:
			t.Errorf("testOnlyExports lists %s, which non-test code now calls", name)
		case strings.TrimSpace(reason) == "":
			t.Errorf("testOnlyExports lists %s without a reason", name)
		}
	}
}

// inspectUses records, into used, the internal functions n references:
// selectors on an imported internal package, and bare identifiers inside
// the package that declares them.
func inspectUses(gf goFile, imports map[string]string, used map[string]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					used[pkg+"."+n.Sel.Name] = true
					return false
				}
			}
			// A field or method selector: only its operand can name a
			// package-level function.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			// Field and parameter names are declarations, not uses.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.KeyValueExpr:
			// A bare key names a struct field.
			if _, ok := n.Key.(*ast.Ident); !ok {
				ast.Inspect(n.Key, visit)
			}
			ast.Inspect(n.Value, visit)
			return false
		case *ast.Ident:
			if gf.pkg != "" {
				used[gf.pkg+"."+n.Name] = true
			}
		}
		return true
	}
	return visit
}
