// Package loading without golang.org/x/tools/go/packages: module packages
// are enumerated with `go list -json`, type-checked from source in
// dependency order with one shared FileSet (so types.Object identities are
// stable across packages), and standard-library imports are satisfied from
// build-cache export data located with `go list -export`. Works fully
// offline.

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path      string
	Name      string
	Dir       string
	Files     []*ast.File
	Fset      *token.FileSet
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Export     string
}

// loader resolves imports either from in-module source directories or from
// gc export data, caching both. One loader (and one FileSet) serves a whole
// Load call so object identities are consistent.
type loader struct {
	fset *token.FileSet
	// src maps import path -> source package metadata for packages
	// type-checked from source (module packages, or testdata fakes).
	src map[string]*listedPackage
	// exportFiles maps import path -> export data file for gc imports.
	exportFiles map[string]string
	// done caches fully type-checked packages by import path.
	done map[string]*Package
	// gc imports stdlib packages from export data; it keeps its own cache
	// keyed by path so identities are shared across all source packages.
	gc types.Importer
	// loading guards against import cycles in source packages.
	loading map[string]bool
}

func newLoader() *loader {
	l := &loader{
		fset:        token.NewFileSet(),
		src:         map[string]*listedPackage{},
		exportFiles: map[string]string{},
		done:        map[string]*Package{},
		loading:     map[string]bool{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l
}

// lookupExport feeds the gc importer the export data file for path,
// resolving through `go list -export` (cached) when the batch prefetch did
// not already know it.
func (l *loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exportFiles[path]
	if !ok || file == "" {
		out, err := runGo("", "list", "-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, fmt.Errorf("lint: no export data for %q: %w", path, err)
		}
		file = strings.TrimSpace(out)
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		l.exportFiles[path] = file
	}
	return os.Open(file)
}

// Import implements types.Importer over the loader's two sources.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.done[path]; ok {
		return pkg.Types, nil
	}
	if meta, ok := l.src[path]; ok {
		pkg, err := l.check(meta)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.gc.Import(path)
}

// check parses and type-checks one source package (recursively resolving
// its imports through the loader) and caches the result.
func (l *loader) check(meta *listedPackage) (*Package, error) {
	if pkg, ok := l.done[meta.ImportPath]; ok {
		return pkg, nil
	}
	if l.loading[meta.ImportPath] {
		return nil, fmt.Errorf("lint: import cycle through %q", meta.ImportPath)
	}
	l.loading[meta.ImportPath] = true
	defer delete(l.loading, meta.ImportPath)

	var files []*ast.File
	for _, name := range meta.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(meta.Dir, name)
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := &types.Config{Importer: l}
	tpkg, err := conf.Check(meta.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", meta.ImportPath, err)
	}
	pkg := &Package{
		Path:      meta.ImportPath,
		Name:      tpkg.Name(),
		Dir:       meta.Dir,
		Files:     files,
		Fset:      l.fset,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.done[meta.ImportPath] = pkg
	return pkg, nil
}

// Load enumerates the packages matching patterns in the module rooted at
// (or containing) dir, type-checks them and their in-module dependencies
// from source, and returns the packages matching the patterns in dependency
// order (imports before importers). Test files are not loaded; the
// invariants qpipe-lint enforces live in engine code proper.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, append([]string{"-export", "-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targets, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	isTarget := map[string]bool{}
	for _, t := range targets {
		isTarget[t.ImportPath] = true
	}

	l := newLoader()
	// `go list -deps` emits dependencies before dependents; remember that
	// order for the result, and pre-register every package with its source
	// or export-data location.
	var order []string
	for _, m := range metas {
		if m.Standard {
			if m.Export != "" {
				l.exportFiles[m.ImportPath] = m.Export
			}
			continue
		}
		l.src[m.ImportPath] = m
		order = append(order, m.ImportPath)
	}

	var pkgs []*Package
	for _, path := range order {
		pkg, err := l.check(l.src[path])
		if err != nil {
			return nil, err
		}
		if isTarget[path] {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadFromSrcDir loads the packages at import paths pkgpaths whose source
// trees live under srcdir (GOPATH style: srcdir/<pkgpath>/*.go), resolving
// non-stdlib imports from sibling directories under srcdir. All packages
// share one loader and FileSet, as in a real run. This is how the
// analysistest runner loads testdata packages without a go.mod.
func LoadFromSrcDir(srcdir string, pkgpaths ...string) ([]*Package, error) {
	l := newLoader()
	if err := l.registerSrcTree(srcdir); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, pkgpath := range pkgpaths {
		meta, ok := l.src[pkgpath]
		if !ok {
			return nil, fmt.Errorf("lint: no package %q under %s", pkgpath, srcdir)
		}
		pkg, err := l.check(meta)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// registerSrcTree walks srcdir registering every directory containing .go
// files as a source package whose import path is its srcdir-relative path.
func (l *loader) registerSrcTree(srcdir string) error {
	return filepath.Walk(srcdir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var goFiles []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				goFiles = append(goFiles, e.Name())
			}
		}
		if len(goFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(srcdir, path)
		if err != nil {
			return err
		}
		importPath := filepath.ToSlash(rel)
		l.src[importPath] = &listedPackage{
			ImportPath: importPath,
			Dir:        path,
			GoFiles:    goFiles,
		}
		return nil
	})
}

// goList runs `go list -json` with args in dir and decodes the package
// stream.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	out, err := runGo(dir, append([]string{"list", "-e", "-json=ImportPath,Name,Dir,GoFiles,Imports,Standard,Export"}, args...)...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var metas []*listedPackage
	for dec.More() {
		m := &listedPackage{}
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

func runGo(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}
