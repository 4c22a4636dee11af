package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Lockguard enforces the annotated lock discipline.
//
// A struct field carrying a `// guarded by <name>` comment (doc or
// trailing) may only be accessed by functions that demonstrably hold the
// guard, where <name> is a sibling sync.Mutex/sync.RWMutex/sync.Once
// field. A function holds the guard when its body (closures included)
// contains a `<x>.<name>.Lock()` / `.RLock()` / `.Do(...)` call, or when
// its doc comment says `// lockguard: caller holds <name>` (the
// repo-wide convention for helpers called under an already-held lock).
// Writes under an RWMutex require the write lock; RLock only satisfies
// reads. Composite-literal construction and assignments to freshly built
// local values are exempt — initialization precedes sharing.
//
// Additionally, a guarded field named `gen` is treated as the engine's
// store generation: every `gen++` must appear in a function that also
// publishes a snapshot or invalidates the result cache (a `.publish(...)`
// or `.sweepBelow(...)` call), unless the bump
// carries an explicit `// lint:gen-lazy <reason>` comment. The reason is
// mandatory, exactly as for lint:ignore waivers.
//
// Finally, a snapshot publish — a `.Store(...)` call whose receiver is a
// field named `snap` — must pair with a retire call in the same function
// (`.retire(...)`), so published generations always enter the retention
// window and dead ones are swept; `// lint:gen-lazy <reason>` waives this
// too.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc: "fields annotated `// guarded by <mu>` are only accessed while " +
		"holding the lock (or under `// lockguard: caller holds <mu>`); " +
		"store-generation bumps pair with a snapshot publish or cache " +
		"sweep, and snap.Store pairs with retire, or waive with " +
		"`// lint:gen-lazy <reason>`",
	Run: runLockguard,
}

var (
	guardedByRe   = regexp.MustCompile(`guarded by (\w+)`)
	callerHoldsRe = regexp.MustCompile(`lockguard: caller holds ([\w, ]+)`)
)

const genLazyPrefix = "lint:gen-lazy"

func runLockguard(pass *Pass) error {
	g := &lockguarder{pass: pass}
	g.collectGuards()
	if len(g.guards) == 0 {
		return nil
	}
	g.collectGenLazy()
	g.checkAccesses()
	return nil
}

type guardInfo struct {
	name string // sibling guard field name
	once bool   // guard is a sync.Once rather than a mutex
}

type lockguarder struct {
	pass   *Pass
	guards map[*types.Var]guardInfo
	// genLazy maps filename -> lines covered by a lint:gen-lazy comment.
	genLazy map[string]map[int]bool
}

// collectGuards maps annotated fields to their guards.
func (g *lockguarder) collectGuards() {
	g.guards = make(map[*types.Var]guardInfo)
	for _, f := range g.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := fieldGuardName(field)
				if guard == "" {
					continue
				}
				once := structHasOnceField(g.pass, st, guard)
				for _, name := range field.Names {
					if v, ok := g.pass.Info.Defs[name].(*types.Var); ok {
						g.guards[v] = guardInfo{name: guard, once: once}
					}
				}
			}
			return true
		})
	}
}

func fieldGuardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// structHasOnceField reports whether the guard field of the struct is a
// sync.Once (which changes what "holding" means).
func structHasOnceField(pass *Pass, st *ast.StructType, guard string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != guard {
				continue
			}
			t := pass.Info.Types[field.Type].Type
			named, ok := t.(*types.Named)
			if !ok {
				return false
			}
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Once"
		}
	}
	return false
}

// collectGenLazy indexes `// lint:gen-lazy <reason>` comments; like
// waivers, one covers its own line and the next.
func (g *lockguarder) collectGenLazy() {
	g.genLazy = make(map[string]map[int]bool)
	for _, f := range g.pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				if !strings.HasPrefix(text, genLazyPrefix) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, genLazyPrefix))
				if reason == "" {
					g.pass.Reportf(c.Pos(),
						"malformed gen-lazy waiver: want `// lint:gen-lazy <reason>` with a non-empty reason")
					continue
				}
				pos := g.pass.Fset.Position(c.Pos())
				lm := g.genLazy[pos.Filename]
				if lm == nil {
					lm = make(map[int]bool)
					g.genLazy[pos.Filename] = lm
				}
				lm[pos.Line] = true
				lm[pos.Line+1] = true
			}
		}
	}
}

func (g *lockguarder) genLazyCovers(pos token.Pos) bool {
	p := g.pass.Fset.Position(pos)
	return g.genLazy[p.Filename][p.Line]
}

// holdKinds records how a function acquires a given guard name.
type holdKinds struct{ lock, rlock, do bool }

// holdsGuard scans fd for acquisitions of the named guard.
func (g *lockguarder) holdsGuard(fd *ast.FuncDecl, guard string) holdKinds {
	var h holdKinds
	if fd == nil {
		return h
	}
	if fd.Doc != nil {
		if m := callerHoldsRe.FindStringSubmatch(fd.Doc.Text()); m != nil {
			for _, name := range strings.Split(m[1], ",") {
				if strings.TrimSpace(name) == guard {
					h.lock, h.rlock, h.do = true, true, true
				}
			}
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Match <...>.<guard>.Lock() etc. — the receiver's final selector
		// (or bare identifier) must be the guard's field name.
		recvName := ""
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			recvName = recv.Sel.Name
		case *ast.Ident:
			recvName = recv.Name
		}
		if recvName != guard {
			return true
		}
		switch sel.Sel.Name {
		case "Lock":
			h.lock = true
		case "RLock":
			h.rlock = true
		case "Do":
			h.do = true
		}
		return true
	})
	return h
}

// checkAccesses walks every selector touching a guarded field.
func (g *lockguarder) checkAccesses() {
	type key struct {
		fd    *ast.FuncDecl
		guard string
	}
	holdCache := make(map[key]holdKinds)
	holds := func(fd *ast.FuncDecl, guard string) holdKinds {
		k := key{fd, guard}
		if h, ok := holdCache[k]; ok {
			return h
		}
		h := g.holdsGuard(fd, guard)
		holdCache[k] = h
		return h
	}

	inspectAll(g.pass.Files, func(n ast.Node, stack []ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection := g.pass.Info.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return
		}
		v, ok := selection.Obj().(*types.Var)
		if !ok {
			return
		}
		gi, guarded := g.guards[v]
		if !guarded {
			return
		}
		fd := enclosingFuncDecl(stack)
		if fd == nil {
			return
		}
		write := isWriteAccess(sel, stack)
		if g.freshLocal(fd, sel) {
			return
		}
		h := holds(fd, gi.name)
		held := h.lock || h.do || (!write && h.rlock)
		if !held {
			verb := "read"
			if write {
				verb = "write to"
			}
			g.pass.Reportf(sel.Sel.Pos(),
				"%s %s without holding %s (annotate the caller `// lockguard: caller holds %s` if the lock is held upstream)",
				verb, v.Name(), gi.name, gi.name)
		}
		// Generation bump pairing: gen++ must publish (MVCC path) or sweep
		// — or be waived lazy.
		if write && v.Name() == "gen" && isIncrement(sel, stack) {
			if !g.genLazyCovers(sel.Pos()) && !fdCallsAny(fd, "publish", "sweepBelow") {
				g.pass.Reportf(sel.Sel.Pos(),
					"store-generation bump without a snapshot publish or cache sweep; call publish()/sweepBelow() in the same critical section or waive with `// lint:gen-lazy <reason>`")
			}
		}
	})

	// Snapshot publish pairing: snap.Store must retire in the same
	// function so the retention window advances with every publish.
	inspectAll(g.pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSnapStore(call) {
			return
		}
		fd := enclosingFuncDecl(stack)
		if fd == nil {
			return
		}
		if !g.genLazyCovers(call.Pos()) && !fdCallsAny(fd, "retire") {
			g.pass.Reportf(call.Pos(),
				"snapshot publish without retiring into the retention window; call retire() in the same function or waive with `// lint:gen-lazy <reason>`")
		}
	})
}

// isSnapStore reports whether call is `<...>.snap.Store(...)` — the
// atomic publish of a new generation snapshot.
func isSnapStore(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" {
		return false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return recv.Sel.Name == "snap"
	case *ast.Ident:
		return recv.Name == "snap"
	}
	return false
}

// isWriteAccess reports whether sel is assigned or incremented.
func isWriteAccess(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, l := range parent.Lhs {
			if ast.Unparen(l) == ast.Expr(sel) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(parent.X) == ast.Expr(sel)
	case *ast.UnaryExpr:
		// &x.f leaks a writable reference; treat as write.
		return parent.Op == token.AND && ast.Unparen(parent.X) == ast.Expr(sel)
	}
	return false
}

func isIncrement(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	inc, ok := stack[len(stack)-1].(*ast.IncDecStmt)
	return ok && inc.Tok == token.INC && ast.Unparen(inc.X) == ast.Expr(sel)
}

// freshLocal exempts accesses through a local variable the function built
// itself (composite literal or new) — initialization before sharing.
func (g *lockguarder) freshLocal(fd *ast.FuncDecl, sel *ast.SelectorExpr) bool {
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := g.pass.Info.Uses[base]
	if obj == nil {
		return false
	}
	fresh := false
	ast.Inspect(fd, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok || g.pass.Info.Defs[id] != obj {
			return true
		}
		rhs := ast.Unparen(asg.Rhs[0])
		if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
			rhs = ast.Unparen(u.X)
		}
		switch rhs := rhs.(type) {
		case *ast.CompositeLit:
			fresh = true
		case *ast.CallExpr:
			if id, ok := rhs.Fun.(*ast.Ident); ok && id.Name == "new" {
				fresh = true
			}
		}
		return true
	})
	return fresh
}

// fdCallsAny reports whether fd's body calls a method with one of the
// given names.
func fdCallsAny(fd *ast.FuncDecl, names ...string) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			for _, name := range names {
				if sel.Sel.Name == name {
					found = true
				}
			}
		}
		return true
	})
	return found
}
