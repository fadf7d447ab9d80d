package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded as.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of a single module using the
// standard library only. Module-local import paths are resolved against
// the module root directly; standard-library imports are type-checked
// from GOROOT source via go/importer's "source" importer (shipped
// toolchains no longer carry export data, and the source importer alone
// is not module-aware — hence the hybrid). Every Loader in a process
// shares one FileSet and one standard-library importer (std), so the
// standard library is type-checked once per process, not once per
// Loader.
//
// Only non-test files that match the default build constraints are
// loaded: the invariants protect production digest paths, and tests
// legitimately use wall clocks, goroutines and stress randomness.
type Loader struct {
	Fset *token.FileSet
	// Root is the module root directory (where go.mod lives).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	cache map[string]*loadEntry
}

// The process-wide standard-library importer behind every Loader, and
// the FileSet its packages are positioned in. The source importer is
// not documented as safe for concurrent use, so stdMu serializes it:
// Loaders on different goroutines share the packages it has already
// checked and take turns checking new ones.
var (
	stdFset = token.NewFileSet()
	stdMu   sync.Mutex
	std     = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
)

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader creates a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:   stdFset,
		Root:   root,
		Module: module,
		cache:  map[string]*loadEntry{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: %s has no module declaration", gomod)
}

// Load resolves patterns to package directories, loads and type-checks
// each, and returns them sorted by import path. A pattern is a directory
// path (absolute or relative to the working directory) or such a path
// suffixed with "/..." for the whole subtree; "testdata", "vendor" and
// dot/underscore directories are never descended into, matching the go
// tool.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDirAs loads the package in dir under a claimed import path. Corpus
// tests use it to place testdata packages inside scoped subtrees (for
// example a testdata directory loaded as asmp/internal/sched/...)
// without the files actually living there.
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(importPath, abs)
}

// expand resolves patterns to a sorted, deduplicated list of package
// directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) error {
		ok, err := hasGoFiles(dir)
		if err != nil || !ok {
			return err
		}
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			recursive = true
			pat = strings.TrimSuffix(rest, string(filepath.Separator))
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			if err := add(abs); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// buildable non-test Go file.
func hasGoFiles(dir string) (bool, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return false, nil
		}
		return false, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	return len(bp.GoFiles) > 0, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// local reports whether importPath belongs to the loaded module.
func (l *Loader) local(importPath string) bool {
	return importPath == l.Module || strings.HasPrefix(importPath, l.Module+"/")
}

// load parses and type-checks the package in dir under importPath,
// memoizing by import path (the cycle guard doubles as the cache slot).
func (l *Loader) load(importPath, dir string) (*Package, error) {
	if e, ok := l.cache[importPath]; ok {
		return e.pkg, e.err
	}
	entry := &loadEntry{err: fmt.Errorf("analysis: import cycle through %s", importPath)}
	l.cache[importPath] = entry

	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		entry.err = fmt.Errorf("analysis: %s: %w", dir, err)
		return nil, entry.err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			entry.err = err
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		entry.err = fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
		return nil, entry.err
	}
	entry.pkg = &Package{
		Path: importPath, Dir: dir,
		Fset: l.Fset, Files: files, Pkg: tpkg, Info: info,
	}
	entry.err = nil
	return entry.pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages are
// resolved against the module root and type-checked by this loader;
// everything else is delegated to the standard-library source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.local(path) {
		pkg, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return std.ImportFrom(path, srcDir, mode)
}
