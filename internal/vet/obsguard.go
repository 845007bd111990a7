package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkObsGuard flags method calls on the observability types (obsTypes:
// *obs.Obs, *obs.Ring, *metrics.Histogram) in the internal/ packages that
// are not dominated by a nil check. The disabled fast path costs one
// pointer nil-check per operation (~92 ns on a DRAM hit, DESIGN.md
// §5-quater); an unguarded Observe/Emit on
// a hot path would either pay clock reads with observability off or panic on
// the nil histogram pointers a disabled manager carries.
//
// The domination analysis is a pragmatic intra-function walk, not SSA: a
// call is considered guarded when it sits under (a) an if-condition that
// checked its receiver expression against nil, (b) any active nil check of a
// *obs.Obs-typed expression — the codebase's convention is that the cached
// histogram/ring pointers are non-nil exactly when the Obs pointer is — or
// (c) a receiver chained from a local built by an obs/metrics constructor in
// the same function (provably non-nil).
func checkObsGuard(p *pass) {
	if !strings.Contains(p.unit.path, "/internal/") {
		return
	}
	// The packages defining the observability types check their own
	// receivers (nil-receiver methods are part of their API contract).
	for _, t := range obsTypes {
		if pathMatches(p.unit.path, []string{t[:strings.LastIndex(t, ".")]}) {
			return
		}
	}
	for _, f := range p.unit.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := &guardWalker{pass: p, env: map[string]types.Type{}, locals: map[types.Object]bool{}}
			g.block(fd.Body.List)
		}
		// Function literals at file scope (var initializers) are rare;
		// literals inside functions are visited by the walker itself.
	}
}

// guardWalker walks one function body tracking which expressions are known
// non-nil on the current path.
type guardWalker struct {
	pass *pass
	// env maps canonical expression strings known non-nil to their type.
	env map[string]types.Type
	// locals marks objects assigned from an obs/metrics constructor call.
	locals map[types.Object]bool
}

func (g *guardWalker) clone() *guardWalker {
	c := &guardWalker{pass: g.pass, env: map[string]types.Type{}, locals: map[types.Object]bool{}}
	for k, v := range g.env {
		c.env[k] = v
	}
	for k, v := range g.locals {
		c.locals[k] = v
	}
	return c
}

// block analyzes a statement list, mutating g.env as guards accumulate.
func (g *guardWalker) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		g.stmt(st)
	}
}

func (g *guardWalker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			g.stmt(s.Init)
		}
		g.exprs(s.Cond)
		pos, neg := splitNilChecks(g.pass, s.Cond)
		then := g.clone()
		for k, t := range pos {
			then.env[k] = t
		}
		then.block(s.Body.List)
		if s.Else != nil {
			els := g.clone()
			for k, t := range neg {
				els.env[k] = t
			}
			g.elseStmt(els, s.Else)
		}
		// Early-exit pattern: `if x == nil { return }` guards the rest of
		// the enclosing block.
		if s.Else == nil && terminates(s.Body) {
			for k, t := range neg {
				g.env[k] = t
			}
		}
	case *ast.BlockStmt:
		g.clone().block(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			g.stmt(s.Init)
		}
		if s.Cond != nil {
			g.exprs(s.Cond)
		}
		g.clone().block(s.Body.List)
	case *ast.RangeStmt:
		g.exprs(s.X)
		g.clone().block(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.stmt(s.Init)
		}
		if s.Tag != nil {
			g.exprs(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					g.exprs(e)
				}
				g.clone().block(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.clone().block(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				g.clone().block(cc.Body)
			}
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			g.exprs(r)
		}
		g.trackConstructor(s)
		// An assignment to a guarded expression invalidates its guard.
		for _, l := range s.Lhs {
			delete(g.env, exprKey(l))
		}
	case *ast.ExprStmt:
		g.exprs(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			g.exprs(r)
		}
	case *ast.GoStmt:
		g.exprs(s.Call)
	case *ast.DeferStmt:
		g.exprs(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						g.exprs(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		g.stmt(s.Stmt)
	case *ast.SendStmt:
		g.exprs(s.Chan)
		g.exprs(s.Value)
	case *ast.IncDecStmt:
		g.exprs(s.X)
	}
}

func (g *guardWalker) elseStmt(els *guardWalker, s ast.Stmt) {
	switch e := s.(type) {
	case *ast.BlockStmt:
		els.block(e.List)
	case *ast.IfStmt:
		els.stmt(e)
	}
}

// exprs scans an expression tree for protected calls and nested function
// literals.
func (g *guardWalker) exprs(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A closure runs later: guards active here may be stale, but
			// the codebase's closures re-check. Analyze with a fresh env to
			// stay conservative yet closure-local.
			inner := &guardWalker{pass: g.pass, env: map[string]types.Type{}, locals: g.locals}
			inner.block(x.Body.List)
			return false
		case *ast.CallExpr:
			g.checkCall(x)
		}
		return true
	})
}

// checkCall reports x when it is an unguarded protected method call.
func (g *guardWalker) checkCall(x *ast.CallExpr) {
	sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Only method calls (selection on a value, not a package).
	if _, isPkg := g.pass.unit.info.Uses[selRootIdent(sel)].(*types.PkgName); isPkg && selRootIdent(sel) != nil && sel.X == ast.Expr(selRootIdent(sel)) {
		return
	}
	recvType := g.pass.unit.info.Types[sel.X].Type
	tn := protectedTypeName(g.pass, recvType)
	if tn == "" {
		return
	}
	if g.guarded(sel.X) {
		return
	}
	g.pass.report(x.Pos(), "obsguard",
		"call to (*%s).%s not dominated by a nil check (guard it or hoist it under the obs != nil fast-path check)",
		tn, sel.Sel.Name)
}

// guarded reports whether recv is covered by an active guard.
func (g *guardWalker) guarded(recv ast.Expr) bool {
	if _, ok := g.env[exprKey(recv)]; ok {
		return true
	}
	// Convention guard: any live *obs.Obs nil check covers the cached
	// histogram/ring pointers derived from it.
	for _, t := range g.env {
		if n := namedPtrName(t); n != "" && strings.HasSuffix(n, ".Obs") {
			return true
		}
	}
	// Constructor-derived locals are provably non-nil.
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj := g.pass.unit.info.Uses[id]; obj != nil && g.locals[obj] {
			return true
		}
	}
	return false
}

// trackConstructor marks locals assigned from an obs/metrics constructor
// (`o := obs.New(...)`, `h := o.Hist(...)`) as non-nil.
func (g *guardWalker) trackConstructor(s *ast.AssignStmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	retType := g.pass.unit.info.Types[call].Type
	if protectedTypeName(g.pass, retType) == "" {
		return
	}
	// Methods on a protected type returning a protected type (Obs.Hist,
	// Obs.NewRing) only run under a guard themselves; plain constructors
	// (obs.New) always return non-nil. Either way the local is safe only if
	// the call itself was guarded — checkCall already policed that — so
	// record it.
	var obj types.Object
	if def := g.pass.unit.info.Defs[id]; def != nil {
		obj = def
	} else {
		obj = g.pass.unit.info.Uses[id]
	}
	if obj != nil {
		g.locals[obj] = true
	}
}

// splitNilChecks extracts nil-comparison guards from an if condition:
// pos holds expressions non-nil when the condition is true, neg those
// non-nil when it is false.
func splitNilChecks(p *pass, cond ast.Expr) (pos, neg map[string]types.Type) {
	pos, neg = map[string]types.Type{}, map[string]types.Type{}
	var walk func(e ast.Expr, invert bool)
	walk = func(e ast.Expr, invert bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch x.Op.String() {
			case "&&", "||":
				// Conservative: a != nil conjunct guards the true branch of
				// &&; a == nil disjunct guards the false branch of ||.
				walk(x.X, invert)
				walk(x.Y, invert)
			case "!=", "==":
				other, okNil := nilComparand(x)
				if !okNil {
					return
				}
				nonNilWhenTrue := x.Op.String() == "!="
				if invert {
					nonNilWhenTrue = !nonNilWhenTrue
				}
				t := p.unit.info.Types[other].Type
				if nonNilWhenTrue {
					pos[exprKey(other)] = t
				} else {
					neg[exprKey(other)] = t
				}
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "!" {
				walk(x.X, !invert)
			}
		}
	}
	walk(cond, false)
	return pos, neg
}

// nilComparand returns the non-nil side of a comparison against nil.
func nilComparand(b *ast.BinaryExpr) (ast.Expr, bool) {
	if isNilIdent(b.Y) {
		return b.X, true
	}
	if isNilIdent(b.X) {
		return b.Y, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// obsTypes lists, as "import-path-suffix.Type", the observability types
// whose method calls must be nil-guarded.
var obsTypes = []string{"internal/obs.Obs", "internal/obs.Ring", "internal/metrics.Histogram"}

// protectedTypeName returns the short "pkg.Type" name when t is a pointer to
// one of obsTypes, else "".
func protectedTypeName(p *pass, t types.Type) string {
	n := namedPtrName(t)
	if n == "" {
		return ""
	}
	for _, want := range obsTypes {
		if n == want || strings.HasSuffix(n, "/"+want) {
			return shortOf(want)
		}
	}
	return ""
}

// shortOf reduces "path/to/pkg.Type" to "pkg.Type".
func shortOf(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}

// namedPtrName renders *pkgpath.Type as "pkgpath.Type", else "".
func namedPtrName(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// terminates reports whether a block always leaves the enclosing scope.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// selRootIdent returns sel.X when it is a bare identifier.
func selRootIdent(sel *ast.SelectorExpr) *ast.Ident {
	id, _ := sel.X.(*ast.Ident)
	return id
}

// exprKey canonicalizes an expression for guard matching.
func exprKey(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExpr(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.ParenExpr:
		writeExpr(b, x.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, x.X)
	case *ast.UnaryExpr:
		b.WriteString(x.Op.String())
		writeExpr(b, x.X)
	case *ast.IndexExpr:
		writeExpr(b, x.X)
		b.WriteByte('[')
		writeExpr(b, x.Index)
		b.WriteByte(']')
	case *ast.CallExpr:
		writeExpr(b, x.Fun)
		b.WriteString("(…)")
	case *ast.BasicLit:
		b.WriteString(x.Value)
	default:
		b.WriteString("?")
	}
}
