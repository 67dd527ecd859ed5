package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Loader parses and type-checks module packages from source. Imports inside
// the module resolve recursively through the loader itself; everything else
// (the standard library) goes through go/importer's source importer, so the
// whole pipeline works offline with no compiled export data and no
// golang.org/x/tools.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path declared in go.mod
	BuildTags  []string

	// IncludeTests adds each REQUESTED package's in-package _test.go
	// files to the analyzed file set (the cmd/gpclint -tests flag).
	// External test packages (package foo_test) are separate packages
	// with their own import graphs and are not loaded; transitively
	// imported dependencies always load without their tests, so a test
	// file importing a package that imports the package under test — a
	// cycle only the go tool's two-pass build can untangle — stays
	// loadable.
	IncludeTests bool

	ctx       build.Context
	std       types.ImporterFrom
	pkgs      map[string]*Package // by import path
	withTests map[string]bool     // cache entry includes _test.go files
	loading   map[string]bool     // import-cycle detection
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string, tags []string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.BuildTags = append([]string(nil), tags...)
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		BuildTags:  tags,
		ctx:        ctx,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
		withTests:  make(map[string]bool),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadDir loads the package in a single directory (absolute or relative to
// the module root).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.ModuleRoot, dir)
	}
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, l.IncludeTests)
}

// load returns the type-checked package for a module-internal import path.
// A package cached without its test files is re-checked when it is later
// requested with them (the reverse downgrade never happens: dependencies
// always load test-free, and a cached with-tests package type-checks the
// same non-test declarations its importers need).
func (l *Loader) load(path string, includeTests bool) (*Package, error) {
	if p, ok := l.pkgs[path]; ok && (!includeTests || l.withTests[path]) {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.ModuleRoot
	if path != l.ModulePath {
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}

	names := append([]string(nil), bp.GoFiles...)
	if includeTests {
		names = append(names, bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	l.withTests[path] = includeTests
	return p, nil
}

// loaderImporter adapts the Loader to types.ImporterFrom, routing module
// paths back through the loader and everything else to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.load(path, false)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// ExpandPatterns resolves command-line package patterns — "./...",
// "dir/...", plain directories — into package directories relative to the
// module root, in walk order. Directories named testdata, vendor, or
// starting with "." or "_", and directories below the walk's root that hold
// their own go.mod (nested modules), terminate the recursive walk, matching
// the go tool; naming such a directory explicitly still works, which is how
// the fixture packages are linted on demand.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.ModuleRoot, root)
		}
		if !recursive {
			if hasGoFiles(root) {
				add(root)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", pat)
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != root {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
