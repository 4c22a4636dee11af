package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BerrcheckPackages lists the import-path suffixes whose exported
// boundaries must only emit typed berr.Error values. Tests override it
// to point the analyzer at fixture packages.
var BerrcheckPackages = []string{
	"internal/core",
	"internal/storage",
	"internal/minisql",
	"internal/service",
}

// Berrcheck reports raw fmt.Errorf/errors.New errors that can escape the
// exported functions of the typed-error packages.
//
// Two rules:
//
//  1. A raw constructor call lexically inside an exported function is a
//     finding unless its result is immediately handed to a berr
//     constructor (berr.Wrap(code, op, fmt.Errorf(...)) is the blessed
//     cause-wrapping idiom). A suggested fix rewrites the call to
//     berr.New(berr.CodeInternal, "<pkg>.<func>", ...).
//
//  2. An exported function must not return an error produced by a
//     same-package helper that itself returns raw errors (computed as a
//     fixed point over the package's call graph) unless the value passes
//     through berr.New/berr.Wrap/berr.FromContext on the way out.
//     Unexported helpers may keep returning raw errors — that is the
//     repo's layering (cheap internal errors, typed at the boundary) —
//     but the boundary wrap becomes machine-checked.
var Berrcheck = &Analyzer{
	Name: "berrcheck",
	Doc: "errors escaping exported functions of the typed-error packages " +
		"(internal/core, internal/storage, internal/minisql, internal/service) " +
		"must be typed berr.Error values, not raw fmt.Errorf/errors.New results",
	Run: runBerrcheck,
}

func runBerrcheck(pass *Pass) error {
	if !pathMatchesAny(pass.Pkg.Path(), BerrcheckPackages) {
		return nil
	}
	b := &berrchecker{pass: pass, errType: types.Universe.Lookup("error").Type()}
	b.collectDecls()
	b.solveRawness()
	b.report()
	return nil
}

func pathMatchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

type berrchecker struct {
	pass    *Pass
	errType types.Type

	decls  []*ast.FuncDecl
	objOf  map[*ast.FuncDecl]*types.Func
	declOf map[*types.Func]*ast.FuncDecl
	// raw marks functions that may return a raw (untyped) error.
	raw map[*types.Func]bool
}

func (b *berrchecker) collectDecls() {
	b.objOf = make(map[*ast.FuncDecl]*types.Func)
	b.declOf = make(map[*types.Func]*ast.FuncDecl)
	b.raw = make(map[*types.Func]bool)
	for _, f := range b.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := b.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			b.decls = append(b.decls, fd)
			b.objOf[fd] = fn
			b.declOf[fn] = fd
		}
	}
}

// isRawConstructor reports whether call builds a raw error value.
func (b *berrchecker) isRawConstructor(call *ast.CallExpr) bool {
	fn := calleeFunc(b.pass.Info, call)
	return funcIs(fn, "fmt", "Errorf") || funcIs(fn, "errors", "New")
}

// isBerrCall reports whether call invokes the typed-error package (any
// berr.* constructor sanitizes what flows through it).
func (b *berrchecker) isBerrCall(call *ast.CallExpr) bool {
	fn := calleeFunc(b.pass.Info, call)
	return fn != nil && fn.Pkg() != nil && isPkgNamed(fn.Pkg(), "berr")
}

// solveRawness computes, to a fixed point, which package functions may
// return a raw error.
func (b *berrchecker) solveRawness() {
	for changed := true; changed; {
		changed = false
		for _, fd := range b.decls {
			fn := b.objOf[fd]
			if b.raw[fn] {
				continue
			}
			if w := b.walkDecl(fd, nil); w.returnsRaw {
				b.raw[fn] = true
				changed = true
			}
		}
	}
}

// rawWalk is the per-function lexical flow result.
type rawWalk struct {
	returnsRaw bool
	// rawReturns records the positions and origins of raw returns, for
	// reporting inside exported functions.
	rawReturns []rawReturn
}

type rawReturn struct {
	pos    token.Pos
	origin string
}

// walkDecl scans one function body (closures included), tracking which
// error-typed variables were last assigned a possibly-raw value. The
// tracking is lexical, not flow-sensitive: the scan visits statements in
// source order, which matches how error returns are written in practice;
// waivers cover the residue.
func (b *berrchecker) walkDecl(fd *ast.FuncDecl, report func(rawReturn)) rawWalk {
	info := b.pass.Info
	w := rawWalk{}
	tainted := make(map[types.Object]string) // var -> origin description

	// exprRaw classifies an expression appearing where an error flows out.
	exprRaw := func(e ast.Expr) (bool, string) {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if b.isBerrCall(e) {
				return false, ""
			}
			if b.isRawConstructor(e) {
				return true, "raw " + types.ExprString(e.Fun)
			}
			if fn := calleeFunc(info, e); fn != nil && b.raw[fn] {
				return true, fn.Name()
			}
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				return false, ""
			}
			if origin, ok := tainted[obj]; ok {
				return true, origin
			}
		}
		return false, ""
	}

	// callIsRawSource reports whether a call's error results are raw.
	callIsRawSource := func(call *ast.CallExpr) (bool, string) {
		if b.isBerrCall(call) {
			return false, ""
		}
		if b.isRawConstructor(call) {
			return true, "raw " + types.ExprString(call.Fun)
		}
		if fn := calleeFunc(info, call); fn != nil && b.raw[fn] {
			return true, fn.Name()
		}
		return false, ""
	}

	mark := func(lhs []ast.Expr, isRaw bool, origin string) {
		for _, l := range lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || !types.Identical(obj.Type(), b.errType) {
				continue
			}
			if isRaw {
				tainted[obj] = origin
			} else {
				delete(tainted, obj)
			}
		}
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					isRaw, origin := callIsRawSource(call)
					mark(n.Lhs, isRaw, origin)
					return true
				}
			}
			// Pairwise assignment: a tainted/clean RHS ident propagates.
			if len(n.Rhs) == len(n.Lhs) {
				for i := range n.Rhs {
					isRaw, origin := exprRaw(n.Rhs[i])
					mark(n.Lhs[i:i+1], isRaw, origin)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				t := info.Types[res].Type
				if t == nil || !types.Identical(t, b.errType) {
					continue
				}
				if isRaw, origin := exprRaw(res); isRaw {
					w.returnsRaw = true
					rr := rawReturn{pos: res.Pos(), origin: origin}
					w.rawReturns = append(w.rawReturns, rr)
					if report != nil {
						report(rr)
					}
				}
			}
		}
		return true
	})
	return w
}

// report emits the final findings.
func (b *berrchecker) report() {
	info := b.pass.Info
	for _, fd := range b.decls {
		if !fd.Name.IsExported() {
			continue
		}
		// Rule 1: raw constructor call sites in exported functions, with a
		// suggested berr.New rewrite.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if b.isRawConstructor(call) && !b.insideBerrCall(fd, call) {
				d := Diagnostic{
					Pos: call.Pos(),
					Message: fmt.Sprintf("raw %s in exported %s crosses the package boundary untyped; use berr.New with a code (or wrap the cause with berr.Wrap)",
						types.ExprString(call.Fun), fd.Name.Name),
				}
				if fix, ok := b.berrNewFix(fd, call); ok {
					d.Fixes = append(d.Fixes, fix)
				}
				b.pass.Report(d)
			}
			return true
		})
		// Rule 2: returns whose error came from a raw same-package helper.
		b.walkDecl(fd, func(rr rawReturn) {
			// Skip returns Rule 1 already covers (direct constructor calls).
			if strings.HasPrefix(rr.origin, "raw ") {
				return
			}
			b.pass.Reportf(rr.pos,
				"error from %s may leave exported %s untyped; wrap it with berr.Wrap (or type %s's errors)",
				rr.origin, fd.Name.Name, rr.origin)
		})
	}
	_ = info
}

// insideBerrCall reports whether the call sits in the argument list of a
// berr constructor (lexically, anywhere up the path from fd to call).
func (b *berrchecker) insideBerrCall(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	found := false
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if n == ast.Node(call) {
			for _, anc := range stack {
				if c, ok := anc.(*ast.CallExpr); ok && b.isBerrCall(c) {
					found = true
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return found
}

// berrNewFix rewrites fmt.Errorf(...) to berr.New(berr.CodeInternal,
// "<pkg>.<func>", ...). Only offered when the file already imports the
// typed-error package (the fix never edits import blocks).
func (b *berrchecker) berrNewFix(fd *ast.FuncDecl, call *ast.CallExpr) (SuggestedFix, bool) {
	fn := calleeFunc(b.pass.Info, call)
	if !funcIs(fn, "fmt", "Errorf") {
		return SuggestedFix{}, false
	}
	file := b.fileOf(call.Pos())
	if file == nil || !fileImports(file, "berr") {
		return SuggestedFix{}, false
	}
	op := fmt.Sprintf("%s.%s", b.pass.Pkg.Name(), strings.ToLower(fd.Name.Name))
	return SuggestedFix{
		Message: "replace with berr.New(berr.CodeInternal, ...)",
		Edits: []TextEdit{
			{Pos: call.Fun.Pos(), End: call.Fun.End(), NewText: []byte("berr.New")},
			{Pos: call.Lparen + 1, End: call.Lparen + 1,
				NewText: []byte(fmt.Sprintf("berr.CodeInternal, %q, ", op))},
		},
	}, true
}

func (b *berrchecker) fileOf(pos token.Pos) *ast.File {
	for _, f := range b.pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// fileImports reports whether the file imports a package whose path ends
// in the given element.
func fileImports(f *ast.File, tail string) bool {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == tail || strings.HasSuffix(p, "/"+tail) {
			return true
		}
	}
	return false
}
