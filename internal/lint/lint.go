// Package lint is BLEND's in-tree static-analysis framework: a minimal
// go/analysis-shaped core (Analyzer, Pass, Diagnostic, suggested fixes)
// plus a package loader built on `go list -export` and the standard
// library's type checker, so the suite needs no dependency on
// golang.org/x/tools and runs in the offline build environment.
//
// The suite enforces the engine's machine-checkable invariants:
//
//   - berrcheck: errors crossing the exported boundaries of
//     internal/core, internal/storage, internal/minisql and
//     internal/service must be typed berr.Error values, not raw
//     fmt.Errorf/errors.New results.
//   - ctxflow: no context.Background()/context.TODO() outside cmd/*,
//     examples and tests; context.Context is the first parameter and is
//     forwarded, never stored in struct fields.
//   - lockguard: fields annotated `// guarded by <mu>` are only touched
//     by functions that hold the lock (or are annotated
//     `// lockguard: caller holds <mu>`), and every store-generation
//     bump pairs with a snapshot publish or result-cache sweep unless waived
//     `// lint:gen-lazy <reason>`.
//   - poolcheck: sync.Pool scratch is released via defer on every return
//     path (panics included) and never escapes or is used after release.
//
// Any finding can be waived in place with
// `// lint:ignore <analyzer> <reason>` on the offending line or the line
// above it; the reason is mandatory. cmd/blendlint compiles the suite
// into one multichecker binary (`blendlint ./...`, run by make lint).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate to
// the real framework if the dependency ever becomes available.
type Analyzer struct {
	// Name is the identifier used in diagnostics and waiver comments.
	Name string
	// Doc is the one-paragraph description shown by `blendlint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// report collects diagnostics (wired by Run; waivers are applied by
	// the driver afterwards, so analyzers never see them).
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully built finding (used when attaching fixes).
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Fixes optionally carries machine-applicable edits (`blendlint -fix`).
	Fixes []SuggestedFix
}

// SuggestedFix is one alternative machine edit resolving a diagnostic.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// TextEdit replaces [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Run executes the analyzers over the loaded packages and returns the
// surviving diagnostics (waivers already applied), sorted by position.
func Run(pkgs []*Package, fset *token.FileSet, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, fset, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		pi, pj := fset.Position(all[i].Pos), fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// runPackage applies every analyzer to one package and filters waivers.
func runPackage(pkg *Package, fset *token.FileSet, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Syntax,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report:   func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	w := collectWaivers(fset, pkg.Syntax)
	diags := raw[:0]
	for _, d := range raw {
		if !w.covers(fset, d) {
			diags = append(diags, d)
		}
	}
	diags = append(diags, w.malformed...)
	return diags, nil
}

// inspectAll walks every file, tracking the enclosing node stack. The
// callback's stack slice is reused between calls; copy it to retain it.
func inspectAll(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// enclosingFuncDecl returns the innermost FuncDecl on the stack, nil at
// package scope.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package functions and methods; nil for builtins, conversions and
// indirect calls through variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcIs reports whether fn is the named function of the package whose
// path is pkgPath (e.g. funcIs(fn, "fmt", "Errorf")).
func funcIs(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isPkgNamed reports whether pkg is the package identified by the given
// import-path tail (matching "berr" against both "blend/internal/berr"
// and a test fixture's local "berr" package).
func isPkgNamed(pkg *types.Package, tail string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == tail || len(p) > len(tail) && p[len(p)-len(tail)-1] == '/' && p[len(p)-len(tail):] == tail
}
