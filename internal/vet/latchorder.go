package vet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
)

// checkLatchOrder runs the latch discipline of internal/lockcheck (the rank
// table and lockcheck.Violation in rules.go) over every function body, so
// the static check and the -tags lockcheck runtime checker enforce one
// statement of the rules. It adds the one rule only a static pass can see:
// no device, vclock or WAL call while a descriptor's mu is held.
//
// The latches are learned from the code. A shim is any function whose body
// calls lockcheck.Acquire (a blocking lock), lockcheck.Acquired (a
// try-lock) or lockcheck.Release (an unlock) on its receiver or on one of
// its parameters; each call of a shim is that latch operation on the
// matching receiver or argument. The mutex field a shim locks on that value
// (d.latchN in d.latchN.Lock()) gives the rank of raw Lock, TryLock and
// Unlock calls on the same field elsewhere in the package.
//
// The analysis is intra-function: it simulates the held-latch stack over
// each function body. The runtime checker catches the inter-procedural
// cases this pass cannot see.
func checkLatchOrder(p *pass) {
	l := findLatches(p)
	for _, f := range p.unit.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &latchWalker{pass: p, latches: l}
			w.block(fd.Body.List)
		}
	}
}

// ioPackages is the device-I/O and simulated-clock surface that may not be
// called while a descriptor's mu is held.
var ioPackages = []string{
	"internal/device", "internal/ssd", "internal/pmem",
	"internal/vclock", "internal/wal",
}

// shim is one function that routes a latch through lockcheck.
type shim struct {
	rank  lockcheck.Rank
	kind  string // "lock", "try", "unlock"
	param int    // index of the latched parameter; -1 for the receiver
}

// latches is one package's latch vocabulary, learned from its shims.
type latches struct {
	shims  map[*types.Func]shim
	fields map[*types.Var]lockcheck.Rank // mutex fields the shims lock
}

// opKinds maps the lockcheck recording calls, and the sync.Mutex methods,
// to the latch operation they stand for.
var opKinds = map[string]string{
	"Acquire": "lock", "Acquired": "try", "Release": "unlock",
	"Lock": "lock", "TryLock": "try", "Unlock": "unlock",
}

// findLatches collects the package's shims and the mutex fields they lock.
func findLatches(p *pass) *latches {
	info := p.unit.info
	l := &latches{shims: map[*types.Func]shim{}, fields: map[*types.Var]lockcheck.Rank{}}
	for _, f := range p.unit.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			// The values a shim may latch: its receiver and parameters.
			slots := map[types.Object]int{}
			if fd.Recv != nil {
				for _, n := range fd.Recv.List[0].Names {
					slots[info.Defs[n]] = -1
				}
			}
			i := 0
			for _, field := range fd.Type.Params.List {
				for _, n := range field.Names {
					slots[info.Defs[n]] = i
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				lc := p.calleeIn(call, []string{"internal/lockcheck"})
				x, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
				rankVal := info.Types[call.Args[1]].Value
				if lc == nil || opKinds[lc.Name()] == "" || x == nil || rankVal == nil {
					return true
				}
				slot, ok := slots[info.Uses[x]]
				v, exact := constant.Int64Val(rankVal)
				if !ok || !exact {
					return true
				}
				rank := lockcheck.Rank(v)
				l.shims[fn] = shim{rank: rank, kind: opKinds[lc.Name()], param: slot}
				// The mutex field the shim locks on x takes x's rank.
				ast.Inspect(fd.Body, func(m ast.Node) bool {
					c, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if field, base, _ := mutexCall(info, c); field != nil {
						if id, ok := ast.Unparen(base).(*ast.Ident); ok && info.Uses[id] == info.Uses[x] {
							l.fields[field] = rank
						}
					}
					return true
				})
				return false
			})
		}
	}
	return l
}

// mutexCall matches <base>.<field>.Lock(), .TryLock() or .Unlock() and
// returns the field, the base expression and the operation kind.
func mutexCall(info *types.Info, call *ast.CallExpr) (*types.Var, ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "TryLock" && sel.Sel.Name != "Unlock") {
		return nil, nil, ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, ""
	}
	field, ok := info.Uses[inner.Sel].(*types.Var)
	if !ok || !field.IsField() {
		return nil, nil, ""
	}
	return field, inner.X, opKinds[sel.Sel.Name]
}

// latchCall classifies one call expression as a latch operation: a call of
// a shim, or a raw Lock/TryLock/Unlock of a mutex field a shim locks.
func (w *latchWalker) latchCall(call *ast.CallExpr) (latchOp, bool) {
	info := w.pass.unit.info
	if field, base, kind := mutexCall(info, call); field != nil {
		rank, ok := w.latches.fields[field]
		return latchOp{base: base, rank: rank, kind: kind}, ok
	}
	s, ok := w.latches.shims[w.pass.callee(call)]
	if !ok {
		return latchOp{}, false
	}
	op := latchOp{rank: s.rank, kind: s.kind}
	switch sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); {
	case s.param < 0 && isSel:
		op.base = sel.X
	case s.param >= 0 && s.param < len(call.Args):
		op.base = call.Args[s.param]
	default:
		return latchOp{}, false
	}
	return op, true
}

// latchOp is one classified latch call site.
type latchOp struct {
	base ast.Expr // the latched value
	rank lockcheck.Rank
	kind string // "lock", "try", "unlock"
}

// heldLatch is one entry of the simulated held-latch stack.
type heldLatch struct {
	base string // canonical expression of the latched value
	rank lockcheck.Rank
}

// latchWalker simulates the held-latch stack over one function body, in
// acquisition order like the runtime checker's shadow stack.
type latchWalker struct {
	pass    *pass
	latches *latches
	held    []heldLatch
}

func (w *latchWalker) clone() *latchWalker {
	return &latchWalker{pass: w.pass, latches: w.latches, held: append([]heldLatch(nil), w.held...)}
}

func (w *latchWalker) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		w.stmt(st)
	}
}

func (w *latchWalker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, ok := w.latchCall(call); ok {
				w.apply(op, call.Pos())
				return
			}
		}
		w.scanExpr(s.X)
	case *ast.IfStmt:
		w.ifStmt(s)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			// `got := d.latchN.TryLock()` followed by a branch: assume the
			// success path so inversions on it are still caught.
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				if op, ok := w.latchCall(call); ok && op.kind == "try" {
					w.apply(op, call.Pos())
					continue
				}
			}
			w.scanExpr(r)
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the latch held to the end of the linear
		// walk, which is exactly the model we want. A deferred closure runs
		// after the function's latches are gone.
		w.scanFuncLits(s.Call)
	case *ast.GoStmt:
		w.scanFuncLits(s.Call)
		for _, a := range s.Call.Args {
			w.scanExpr(a)
		}
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond)
		}
		w.clone().block(s.Body.List)
	case *ast.RangeStmt:
		w.scanExpr(s.X)
		w.clone().block(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().block(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().block(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.clone().block(cc.Body)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
	case *ast.IncDecStmt:
		w.scanExpr(s.X)
	}
}

// ifStmt handles the TryLock idioms:
//
//	if !d.tryLockN() { return }   // held after the if
//	if d.tryLockN() { ...body... } // held inside the body only
func (w *latchWalker) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		w.stmt(s.Init)
	}
	cond := ast.Unparen(s.Cond)

	// Negated try: `if !try { ... }`.
	if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
		if call, ok := ast.Unparen(un.X).(*ast.CallExpr); ok {
			if op, ok := w.latchCall(call); ok && op.kind == "try" {
				w.clone().block(s.Body.List) // failure path: not held
				if s.Else != nil {
					els := w.clone()
					els.apply(op, call.Pos())
					els.elseBranch(s.Else)
				}
				if terminates(s.Body) {
					w.apply(op, call.Pos()) // success path continues below
				}
				return
			}
		}
	}
	// Positive try: `if try { ... }`.
	if call, ok := cond.(*ast.CallExpr); ok {
		if op, ok := w.latchCall(call); ok && op.kind == "try" {
			then := w.clone()
			then.apply(op, call.Pos())
			then.block(s.Body.List)
			if s.Else != nil {
				w.clone().elseBranch(s.Else)
			}
			return
		}
	}

	w.scanExpr(s.Cond)
	w.clone().block(s.Body.List)
	if s.Else != nil {
		w.clone().elseBranch(s.Else)
	}
}

func (w *latchWalker) elseBranch(s ast.Stmt) {
	switch e := s.(type) {
	case *ast.BlockStmt:
		w.block(e.List)
	case *ast.IfStmt:
		w.ifStmt(e)
	}
}

// scanExpr visits an expression for nested latch calls, I/O-under-mu
// violations and function literals.
func (w *latchWalker) scanExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			inner := &latchWalker{pass: w.pass, latches: w.latches}
			inner.block(x.Body.List)
			return false
		case *ast.CallExpr:
			if op, ok := w.latchCall(x); ok {
				w.apply(op, x.Pos())
				return true
			}
			w.ioCheck(x)
		}
		return true
	})
}

// scanFuncLits visits only the function literals of a call (for go/defer,
// whose direct call does not execute at this program point).
func (w *latchWalker) scanFuncLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			inner := &latchWalker{pass: w.pass, latches: w.latches}
			inner.block(fl.Body.List)
			return false
		}
		return true
	})
}

// apply updates the held stack for one latch operation. An acquisition is
// checked against every latch held, in acquisition order, with
// lockcheck.Violation; the first broken rule is reported.
func (w *latchWalker) apply(op latchOp, pos token.Pos) {
	base := exprKey(op.base)
	if op.kind == "unlock" {
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i] == (heldLatch{base, op.rank}) {
				w.held = append(w.held[:i], w.held[i+1:]...)
				break
			}
		}
		return
	}
	flushHeld := false
	for _, h := range w.held {
		flushHeld = flushHeld || h.rank == lockcheck.RankWALFlush
	}
	for _, h := range w.held {
		if msg := lockcheck.Violation(h.rank, h.base == base, op.rank, op.kind == "lock", flushHeld); msg != "" {
			w.pass.report(pos, "latchorder", "acquiring %s of %s while holding %s of %s: %s",
				op.rank, base, h.rank, h.base, msg)
			break
		}
	}
	w.held = append(w.held, heldLatch{base, op.rank})
}

// ioCheck flags a call into the device/vclock/WAL surface while mu is held.
func (w *latchWalker) ioCheck(call *ast.CallExpr) {
	for _, h := range w.held {
		if h.rank != lockcheck.RankMu {
			continue
		}
		if fn := w.pass.calleeIn(call, ioPackages); fn != nil {
			w.pass.report(call.Pos(), "latchorder",
				"call to %s.%s while %s.mu is held (mu is a leaf lock: no device/vclock I/O under it)",
				pkgShort(fn), fn.Name(), h.base)
		}
		return
	}
}

// callee resolves a call's static callee, or nil.
func (p *pass) callee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.unit.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.unit.info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// calleeIn resolves a call's static callee when it belongs to one of the
// given import-path suffixes.
func (p *pass) calleeIn(call *ast.CallExpr, pkgs []string) *types.Func {
	fn := p.callee(call)
	if fn == nil || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), pkgs) {
		return nil
	}
	return fn
}
