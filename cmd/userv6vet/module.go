package main

// Module loading: userv6vet type-checks the whole module from source
// using only the standard library. Packages inside the module are
// parsed and checked here, in dependency order, so every unit sees
// fully-resolved types for its module-internal imports; everything
// else (the standard library — the module has no other dependencies)
// is resolved by go/importer's source-mode importer.
//
// Each directory yields up to three compilation units, mirroring the
// go tool's test build:
//
//   - the base package (non-test files) — cached for import resolution,
//   - the in-package test unit (base files + same-package _test.go
//     files), and
//   - the external test unit (the foo_test package).
//
// Rules see every unit; the driver keeps only _test.go-positioned
// diagnostics from test units so base-file findings are never
// reported twice.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked compilation unit.
type Package struct {
	// Path is the unit's import path (module path + directory).
	Path string
	// Dir is the absolute directory the unit's files live in.
	Dir string
	// Files holds the unit's parsed files, in deterministic order.
	Files []*ast.File
	// Types and Info are the go/types results for the unit.
	Types *types.Package
	Info  *types.Info
	// Test marks the in-package and external test units.
	Test bool
}

// Module is a loaded, fully type-checked module tree.
type Module struct {
	// Root is the absolute directory holding go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset positions every file in every unit.
	Fset *token.FileSet
	// Pkgs lists every unit: all base packages first (in dependency
	// order), then the test units.
	Pkgs []*Package
}

// RelPath returns a unit path relative to the module path ("." for
// the module root package). Rules scope themselves by these paths so
// fixtures under any module name exercise the same logic.
func (m *Module) RelPath(p *Package) string {
	if p.Path == m.Path {
		return "."
	}
	return strings.TrimPrefix(p.Path, m.Path+"/")
}

// The source-mode stdlib importer re-type-checks each standard
// library package it touches, which costs a second or two; one shared
// instance (and one shared FileSet) amortizes that across every
// loadModule call in a process — the fixture tests load many tiny
// modules and would otherwise re-check "os" and friends per fixture.
var (
	sharedMu   sync.Mutex
	sharedFset = token.NewFileSet()
	stdImport  = importer.ForCompiler(sharedFset, "source", nil)
)

// moduleImporter resolves module-internal imports from the units
// type-checked so far and defers everything else to the shared
// source importer.
type moduleImporter struct {
	module string
	cache  map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.cache[path]; ok {
		return p, nil
	}
	if path == mi.module || strings.HasPrefix(path, mi.module+"/") {
		return nil, fmt.Errorf("module package %s not loaded (import cycle?)", path)
	}
	return stdImport.Import(path)
}

// parsedDir is one directory's files, pre-partitioned into units.
type parsedDir struct {
	dir      string
	path     string // import path
	base     []*ast.File
	inTest   []*ast.File // same-package _test.go files
	extTest  []*ast.File // package foo_test files
	imports  []string    // module-internal imports of the base files
	baseName string
}

// loadModule parses and type-checks every package under root, which
// must hold a go.mod. Directories named testdata or vendor, hidden
// directories, and nested modules (a subdirectory with its own
// go.mod) are skipped.
func loadModule(root string) (*Module, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()

	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: sharedFset}

	dirs, err := collectDirs(root)
	if err != nil {
		return nil, err
	}
	var pdirs []*parsedDir
	for _, dir := range dirs {
		pd, err := parseDir(m, dir)
		if err != nil {
			return nil, err
		}
		if pd != nil {
			pdirs = append(pdirs, pd)
		}
	}

	ordered, err := topoSort(pdirs)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{module: modPath, cache: map[string]*types.Package{}}
	// Base units first, in dependency order, feeding the import cache.
	for _, pd := range ordered {
		pkg, err := check(m, imp, pd.path, pd.dir, pd.base, false)
		if err != nil {
			return nil, err
		}
		imp.cache[pd.path] = pkg.Types
		m.Pkgs = append(m.Pkgs, pkg)
	}
	// Then the test units: every base package is now importable, so
	// order no longer matters. The in-package unit re-checks the base
	// files together with the _test.go files, exactly as `go test`
	// compiles them.
	for _, pd := range ordered {
		if len(pd.inTest) > 0 {
			files := append(append([]*ast.File{}, pd.base...), pd.inTest...)
			pkg, err := check(m, imp, pd.path, pd.dir, files, true)
			if err != nil {
				return nil, err
			}
			m.Pkgs = append(m.Pkgs, pkg)
		}
		if len(pd.extTest) > 0 {
			pkg, err := check(m, imp, pd.path+"_test", pd.dir, pd.extTest, true)
			if err != nil {
				return nil, err
			}
			m.Pkgs = append(m.Pkgs, pkg)
		}
	}
	return m, nil
}

// check type-checks one unit.
func check(m *Module, imp types.Importer, path, dir string, files []*ast.File, test bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Test: test}, nil
}

// parseDir parses one directory into a parsedDir, or nil when it has
// no buildable Go files.
func parseDir(m *Module, dir string) (*parsedDir, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	pd := &parsedDir{dir: dir, path: path}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkgName := file.Name.Name
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			if pd.baseName == "" {
				pd.baseName = pkgName
			}
			pd.base = append(pd.base, file)
			for _, spec := range file.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
					pd.imports = append(pd.imports, ip)
				}
			}
		case strings.HasSuffix(pkgName, "_test"):
			pd.extTest = append(pd.extTest, file)
		default:
			pd.inTest = append(pd.inTest, file)
		}
	}
	if len(pd.base) == 0 && len(pd.inTest) == 0 && len(pd.extTest) == 0 {
		return nil, nil
	}
	return pd, nil
}

// collectDirs walks root for package directories, skipping testdata,
// vendor, hidden directories, and nested modules.
func collectDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// topoSort orders base units so every module-internal import precedes
// its importer.
func topoSort(pdirs []*parsedDir) ([]*parsedDir, error) {
	byPath := make(map[string]*parsedDir, len(pdirs))
	for _, pd := range pdirs {
		byPath[pd.path] = pd
	}
	var (
		out     []*parsedDir
		state   = map[string]int{} // 0 unvisited, 1 in progress, 2 done
		visit   func(pd *parsedDir) error
		visitMu []string // active stack, for the cycle message
	)
	visit = func(pd *parsedDir) error {
		switch state[pd.path] {
		case 1:
			return fmt.Errorf("import cycle through %s (stack %v)", pd.path, visitMu)
		case 2:
			return nil
		}
		state[pd.path] = 1
		visitMu = append(visitMu, pd.path)
		for _, ip := range pd.imports {
			if dep, ok := byPath[ip]; ok && dep != pd {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		visitMu = visitMu[:len(visitMu)-1]
		state[pd.path] = 2
		out = append(out, pd)
		return nil
	}
	for _, pd := range pdirs {
		if err := visit(pd); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readModulePath extracts the module path from a go.mod.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("userv6vet: %w (run from inside a module or pass a module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("no module path in %s", path)
}
