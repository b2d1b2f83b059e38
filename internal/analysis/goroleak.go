package analysis

import (
	"go/ast"
	"go/types"
)

// GoroLeak checks that every go statement in non-test code has a provable
// join or shutdown path. The serving system is a long-lived daemon: a
// goroutine nothing ever joins or cancels is either a leak (it
// accumulates across refresh cycles) or a shutdown race (Close returns
// while the goroutine is still writing). A launch is accepted when one of
// these holds:
//
//   - WaitGroup pair: the launched func literal calls <wg>.Done()
//     (usually deferred) and the enclosing function calls <wg>.Add(...)
//     on the same WaitGroup before the go statement — the classic
//     fork/join shard.
//   - Result channel: the launched func literal sends on (or closes) a
//     channel the enclosing function receives from, so the launcher
//     observes completion.
//   - Done-channel wait: the launched func literal receives from a
//     channel owned outside it (<-c.stop, <-ctx.Done()), i.e. it blocks
//     on an owner-controlled shutdown signal.
//   - Ctx-bound callee: the launched call's first argument is a
//     context.Context that is not provably uncancellable. Passing a bare
//     context.Background()/TODO() is flagged — nothing can ever stop the
//     goroutine.
//   - Done-channel callee: the launched method's own body receives from a
//     channel rooted at its receiver (the coalescer's loop selecting on
//     c.stop).
//
// The shapes are syntactic: an Add/Done pair whose Wait was deleted still
// passes (tier-1 and -race catch that one). A deliberate fire-and-forget
// launch is suppressed with //deepsketch:ignore goroleak <reason>.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine launch needs a provable join/shutdown path",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, fd, g)
				}
				return true
			})
		}
	}
	return nil
}

func checkGoStmt(pass *Pass, enclosing *ast.FuncDecl, g *ast.GoStmt) {
	info := pass.Pkg.Info

	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if litHasJoinPath(pass, enclosing, g, lit) {
			return
		}
		pass.Reportf(g.Pos(), "goroutine has no provable join/shutdown path (no paired WaitGroup.Add/Done, no result channel received by the launcher, no done-channel wait); join it")
		return
	}

	// Named function or method launch: ctx-bound or done-channel callee.
	if len(g.Call.Args) > 0 {
		if t := info.Types[g.Call.Args[0]].Type; t != nil && isContextType(t) {
			if bg := uncancellableCtx(info, enclosing, g.Call.Args[0]); bg != "" {
				pass.Reportf(g.Pos(), "goroutine is launched with %s, which nothing can ever cancel; derive a cancellable context (context.WithCancel, signal.NotifyContext)", bg)
			}
			return
		}
	}
	if fn := calleeFunc(info, g.Call); fn != nil {
		if site := pass.Prog.funcDecl(funcKey(fn)); site != nil && calleeWaitsOnOwnerChannel(site) {
			return
		}
	}
	pass.Reportf(g.Pos(), "goroutine has no provable join/shutdown path (callee takes no context and does not wait on an owner-controlled channel); join it with a WaitGroup")
}

// litHasJoinPath checks the three func-literal patterns: WaitGroup pair,
// result channel, done-channel wait.
func litHasJoinPath(pass *Pass, enclosing *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit) bool {
	info := pass.Pkg.Info

	var (
		doneRefs  []chainRef // WaitGroups the literal calls Done() on
		sendChans []types.Object
		waits     bool // literal blocks on an externally-owned channel
	)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ref, name := waitGroupMethod(info, n); name == "Done" {
				doneRefs = append(doneRefs, ref)
			}
			if b := calleeBuiltin(info, n); b == "close" && len(n.Args) == 1 {
				if obj := rootObject(info, n.Args[0]); obj != nil {
					sendChans = append(sendChans, obj)
				}
			}
		case *ast.SendStmt:
			if obj := rootObject(info, n.Chan); obj != nil {
				sendChans = append(sendChans, obj)
			}
		case *ast.UnaryExpr:
			// <-e where e has channel type: the goroutine blocks on a
			// signal someone outside it controls (c.stop, ctx.Done()).
			if n.Op.String() == "<-" {
				if t := info.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						waits = true
					}
				}
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					waits = true
				}
			}
		}
		return true
	})
	if waits {
		return true
	}

	// WaitGroup pair: a matching Add before the go statement, outside the
	// literal.
	for _, done := range doneRefs {
		found := false
		ast.Inspect(enclosing.Body, func(n ast.Node) bool {
			if found || n == lit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && call.Pos() < g.Pos() {
				if ref, name := waitGroupMethod(info, call); name == "Add" && ref.equal(done) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}

	// Result channel: the enclosing function receives from (or ranges
	// over) a channel the literal sends on.
	for _, ch := range sendChans {
		received := false
		ast.Inspect(enclosing.Body, func(n ast.Node) bool {
			if received || n == lit {
				return false
			}
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" && rootObject(info, n.X) == ch {
					received = true
				}
			case *ast.RangeStmt:
				if rootObject(info, n.X) == ch {
					received = true
				}
			case *ast.CallExpr:
				// The channel handed to a helper (wg-style collector) also
				// counts as the launcher keeping a handle on completion.
				for _, arg := range n.Args {
					if rootObject(info, arg) == ch {
						received = true
					}
				}
			}
			return true
		})
		if received {
			return true
		}
	}
	return false
}

// calleeWaitsOnOwnerChannel reports whether the launched method's body
// receives from a channel rooted at its receiver or a package-level
// variable — the loop-until-closed actor shape.
func calleeWaitsOnOwnerChannel(site *declSite) bool {
	if site.fd.Body == nil {
		return false
	}
	info := site.pkg.Info
	waits := false
	ast.Inspect(site.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if t := info.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						waits = true
					}
				}
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					waits = true
				}
			}
		}
		return true
	})
	return waits
}

// uncancellableCtx reports a non-empty description when the context
// argument is provably uncancellable: a direct context.Background()/TODO()
// call, or an identifier whose defining assignment in the enclosing
// function is one. Anything else (a parameter, a field, a WithCancel
// result) gets the benefit of the doubt — ctxpolicy keeps internal
// packages honest about threading.
func uncancellableCtx(info *types.Info, enclosing *ast.FuncDecl, arg ast.Expr) string {
	if name := backgroundCall(info, arg); name != "" {
		return name
	}
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return ""
	}
	obj := info.Uses[id]
	if obj == nil {
		return ""
	}
	result := ""
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[lid] == obj || info.Uses[lid] == obj {
				if name := backgroundCall(info, assign.Rhs[i]); name != "" {
					result = name
				} else {
					result = "" // reassigned from something cancellable
				}
			}
		}
		return true
	})
	return result
}

// backgroundCall matches a direct context.Background()/context.TODO()
// call and returns its rendered name, or "".
func backgroundCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name() + "()"
	}
	return ""
}

// rootObject identifies a channel-valued expression for equality between
// a send site and a receive site: a plain identifier resolves to its
// object, a selector (c.done) to the final field's object. Calls and
// other expressions return nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if obj := info.Uses[e.Sel]; obj != nil {
			return obj
		}
		return info.Defs[e.Sel]
	}
	return nil
}

// chainRef is a canonicalized reference like wg, s.bg, or c.state.wg: the
// root object plus the printed selector path, comparable across the
// launch site and the literal body (closures capture the same root
// object).
type chainRef struct {
	root types.Object
	path string
}

func (a chainRef) equal(b chainRef) bool {
	return a.root != nil && a.root == b.root && a.path == b.path
}

// resolveChain canonicalizes an ident or selector chain; ok is false for
// anything else (calls, index expressions).
func resolveChain(info *types.Info, e ast.Expr) (chainRef, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return chainRef{}, false
		}
		return chainRef{root: obj}, true
	case *ast.SelectorExpr:
		base, ok := resolveChain(info, e.X)
		if !ok {
			return chainRef{}, false
		}
		base.path += "." + e.Sel.Name
		return base, true
	}
	return chainRef{}, false
}

// waitGroupMethod matches <chain>.Add(...) / <chain>.Done() /
// <chain>.Wait() calls on sync.WaitGroup values and returns the
// canonicalized WaitGroup reference plus the method name ("" otherwise).
func waitGroupMethod(info *types.Info, call *ast.CallExpr) (chainRef, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return chainRef{}, ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return chainRef{}, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return chainRef{}, ""
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "WaitGroup" {
		return chainRef{}, ""
	}
	ref, ok := resolveChain(info, sel.X)
	if !ok {
		return chainRef{}, ""
	}
	return ref, fn.Name()
}
