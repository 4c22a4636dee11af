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

// Package is one loaded, type-checked package of the analyzed module.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	GoFiles []string
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Load resolves the patterns (e.g. "./...") in dir into type-checked
// packages ready for analysis. It shells out to `go list -export
// -json -deps`, which compiles export data for every dependency, then
// type-checks the matched packages from source, with no dependency
// beyond the go tool itself.
// Test files are not loaded: the invariants police production code, and
// tests are an explicit exemption of the context-flow rules.
func Load(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	exports := make(map[string]string) // import path -> export data file
	goVersion := ""
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Module != nil && lp.Module.GoVersion != "" && goVersion == "" {
			goVersion = "go" + lp.Module.GoVersion
		}
	}
	checker := newChecker(fset, exports, goVersion)

	var pkgs []*Package
	// go list -deps emits dependencies before dependents, so checking in
	// output order resolves intra-module imports from source.
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			return nil, nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		pkg, err := checker.check(lp.ImportPath, lp.Name, lp.Dir, absFiles(lp.Dir, lp.GoFiles))
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, fset, nil
}

func absFiles(dir string, files []string) []string {
	out := make([]string, len(files))
	for i, f := range files {
		if filepath.IsAbs(f) {
			out[i] = f
		} else {
			out[i] = filepath.Join(dir, f)
		}
	}
	return out
}

// checker type-checks module packages from source, resolving external
// imports through gc export data and already-checked module packages by
// identity.
type checker struct {
	fset      *token.FileSet
	gc        types.Importer
	built     map[string]*types.Package
	goVersion string
}

func newChecker(fset *token.FileSet, exports map[string]string, goVersion string) *checker {
	c := &checker{fset: fset, built: make(map[string]*types.Package), goVersion: goVersion}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	c.gc = importer.ForCompiler(fset, "gc", lookup)
	return c
}

// Import implements types.Importer: source-checked module packages win,
// everything else comes from export data.
func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.built[path]; ok {
		return pkg, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return c.gc.Import(path)
}

// check parses and type-checks one package from source.
func (c *checker) check(path, name, dir string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(c.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	info := NewInfo()
	conf := &types.Config{
		Importer: c,
		Error:    func(error) {}, // collect via the returned error only
	}
	if c.goVersion != "" {
		conf.GoVersion = c.goVersion
	}
	tpkg, err := conf.Check(path, c.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	c.built[path] = tpkg
	return &Package{
		PkgPath: path,
		Name:    name,
		Dir:     dir,
		GoFiles: files,
		Syntax:  syntax,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// PkgPathHasDir reports whether any path element of the package's import
// path equals elem — how ctxflow recognizes cmd/ and examples/ trees.
func PkgPathHasDir(pkgPath, elem string) bool {
	for _, p := range strings.Split(pkgPath, "/") {
		if p == elem {
			return true
		}
	}
	return false
}
