package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakePkg builds an untype-checked Package from source — the module-level
// config audit only needs import paths and function declarations, so the
// drift checks are testable against synthetic trees.
func fakePkg(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+"/fake.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}}
}

func TestConfigDriftModule(t *testing.T) {
	root := fakePkg(t, "gpclust", "package gpclust\n")
	core := fakePkg(t, "gpclust/internal/core", "package core\nfunc Cluster() {}\n")
	obs := fakePkg(t, "gpclust/internal/obs", "package obs\nfunc nowWall() int64 { return 0 }\n")
	pkgs := []*Package{root, core, obs}

	cfg := &Config{
		DeterminismCritical: []string{"internal/core", "internal/vanished"},
		Generator:           []string{"internal/alsogone"},
		WallclockAllow: []FuncAllow{
			{PkgSuffix: "internal/obs", Func: "nowWall"},      // exists: clean
			{PkgSuffix: "internal/obs", Func: "renamedAway"},  // pkg ok, func gone
			{PkgSuffix: "internal/nowhere", Func: "anything"}, // pkg gone
		},
		ErrAllow: []string{"func fmt.Println", "fmt.Println"}, // second is malformed
	}

	diags := runConfigDriftModule(cfg, pkgs)
	wants := []string{
		`DeterminismCritical entry "internal/vanished" matches no loaded package`,
		`Generator entry "internal/alsogone" matches no loaded package`,
		`WallclockAllow entry internal/obs.renamedAway names no declared function`,
		`WallclockAllow entry internal/nowhere.anything matches no loaded package`,
		`ErrAllow entry "fmt.Println" is not a types.Object string prefix`,
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}

	// Without the module root package in the loaded set — any partial run —
	// the config entries are uncheckable and the audit must stay silent.
	if got := runConfigDriftModule(cfg, []*Package{core, obs}); len(got) != 0 {
		t.Fatalf("partial-run audit produced findings: %v", got)
	}
}

// TestLoaderIncludeTests pins the -tests loader contract: a requested
// package gains its in-package _test.go files, and a package first loaded
// as a bare dependency is upgraded when later requested with tests.
func TestLoaderIncludeTests(t *testing.T) {
	l, err := NewLoader(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := l.LoadDir("internal/unionfind")
	if err != nil {
		t.Fatal(err)
	}
	n := len(bare.Files)

	l.IncludeTests = true
	withTests, err := l.LoadDir("internal/unionfind")
	if err != nil {
		t.Fatal(err)
	}
	if len(withTests.Files) <= n {
		t.Fatalf("IncludeTests loaded %d files, bare load had %d: no _test.go files added", len(withTests.Files), n)
	}
	for _, f := range withTests.Files {
		if f.Name.Name != withTests.Types.Name() {
			t.Fatalf("external test package file leaked into %s: package %s", withTests.Path, f.Name.Name)
		}
	}
}

// TestExpandPatternsSkipsNestedModules pins the go tool's rule that "./..."
// stops at a directory holding its own go.mod, while naming that directory
// explicitly still lints it.
func TestExpandPatternsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/outer\n")
	write("a.go", "package outer\n")
	write("sub/b.go", "package sub\n")
	write("nested/go.mod", "module example.com/nested\n")
	write("nested/c.go", "package nested\n")
	write("nested/deep/d.go", "package deep\n")

	l, err := NewLoader(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{l.ModuleRoot, filepath.Join(l.ModuleRoot, "sub")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("./... expanded to %v, want %v", got, want)
	}

	got, err = l.ExpandPatterns([]string{"nested"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(l.ModuleRoot, "nested")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("explicit nested expanded to %v, want %v", got, want)
	}
}
