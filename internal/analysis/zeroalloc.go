package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ZeroAlloc checks that functions annotated //deepsketch:zeroalloc — the
// packed forward kernels and the engine's steady-state dispatch — contain
// no allocating constructs: no make/new/append, no closures or go
// statements, no slice/map composite literals, no string concatenation or
// string<->[]byte conversions, no interface boxing, and no calls except
// to other annotated functions, an explicit allowlist (math, math/bits,
// sync lock/unlock, sync/atomic), and non-allocating builtins. panic
// calls are exempt: the failure path may allocate. Amortized growth sites
// inside an annotated arena (Workspace.Reserve/Alloc) carry explicit
// //deepsketch:ignore lines so the exception is visible in the source.
var ZeroAlloc = &Analyzer{
	Name: "zeroalloc",
	Doc:  "annotated hot-path kernels must not contain allocating constructs",
	Run:  runZeroAlloc,
}

// zeroAllocPkgAllow lists packages whose functions are allocation-free as
// used on the kernels' hot paths.
var zeroAllocPkgAllow = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// zeroAllocSyncAllow lists the sync methods that never allocate.
var zeroAllocSyncAllow = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true, "TryLock": true,
}

// zeroAllocBuiltinAllow lists non-allocating builtins, package unsafe's
// among them: each only computes a size, an offset or a pointer, or
// reinterprets memory it is handed.
var zeroAllocBuiltinAllow = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true,
	"min": true, "max": true, "real": true, "imag": true, "complex": true,
	"print": true, "println": true, // debug-only, no heap growth
	"unsafe.Sizeof": true, "unsafe.Alignof": true, "unsafe.Offsetof": true,
	"unsafe.Add": true, "unsafe.Slice": true, "unsafe.SliceData": true,
	"unsafe.String": true, "unsafe.StringData": true,
}

func runZeroAlloc(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := declKey(pass.Pkg.Info, fd)
			if key == "" || !pass.Prog.Directives.Func(key).ZeroAlloc {
				continue
			}
			checkZeroAllocBody(pass, fd)
		}
	}
	return nil
}

func checkZeroAllocBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	// Collect expressions used as call targets so method/func values used
	// as calls are not double-counted as value captures.
	inPanic := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && calleeBuiltin(info, call) == "panic" {
			inPanic[call] = true
			return false // the failure path may allocate freely
		}
		return true
	})

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if inPanic[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement spawns a goroutine in a zeroalloc function")
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal allocates (closure) in a zeroalloc function")
			return false
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Chan:
				pass.Reportf(n.Pos(), "composite literal allocates in a zeroalloc function")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap in a zeroalloc function")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(n.Pos(), "string concatenation allocates in a zeroalloc function")
				}
			}
		case *ast.AssignStmt:
			checkZeroAllocAssign(pass, n)
		case *ast.ReturnStmt:
			checkZeroAllocReturn(pass, fd, n)
		case *ast.CallExpr:
			checkZeroAllocCall(pass, n)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

func checkZeroAllocCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info

	if b := calleeBuiltin(info, call); b != "" {
		switch b {
		case "make":
			pass.Reportf(call.Pos(), "make allocates in a zeroalloc function")
		case "new":
			pass.Reportf(call.Pos(), "new allocates in a zeroalloc function")
		case "append":
			pass.Reportf(call.Pos(), "append may grow its backing array in a zeroalloc function")
		case "clear", "panic":
			// non-allocating / exempt
		default:
			if !zeroAllocBuiltinAllow[b] {
				pass.Reportf(call.Pos(), "builtin %s is not allowlisted in a zeroalloc function", b)
			}
		}
		return
	}

	if isConversion(info, call) {
		checkZeroAllocConversion(pass, call)
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "dynamic call (func value or interface method) cannot be verified in a zeroalloc function")
		return
	}
	checkZeroAllocArgs(pass, call, fn)

	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			pass.Reportf(call.Pos(), "interface method call %s cannot be verified in a zeroalloc function", fn.Name())
			return
		}
	}
	if fn.Pkg() == nil || zeroAllocPkgAllow[fn.Pkg().Path()] {
		return
	}
	if fn.Pkg().Path() == "sync" && zeroAllocSyncAllow[fn.Name()] {
		return
	}
	if pass.Prog.Directives.Func(funcKey(fn)).ZeroAlloc {
		return
	}
	pass.Reportf(call.Pos(), "call to %s, which is neither annotated //deepsketch:zeroalloc nor allowlisted", funcKey(fn))
}

// checkZeroAllocConversion flags conversions that allocate: string
// materialization and interface boxing.
func checkZeroAllocConversion(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if len(call.Args) != 1 {
		return
	}
	dst := info.Types[ast.Unparen(call.Fun)].Type
	src := info.Types[call.Args[0]].Type
	if src == nil || dst == nil {
		return
	}
	if tv := info.Types[call.Args[0]]; tv.Value != nil {
		return // constant conversions fold at compile time
	}
	switch {
	case isString(dst) && !isString(src):
		pass.Reportf(call.Pos(), "conversion to string allocates in a zeroalloc function")
	case isString(src) && isByteOrRuneSlice(dst):
		pass.Reportf(call.Pos(), "string to slice conversion allocates in a zeroalloc function")
	case boxes(dst, src):
		pass.Reportf(call.Pos(), "conversion to interface boxes its operand in a zeroalloc function")
	}
}

// checkZeroAllocArgs flags interface boxing at call boundaries and
// variadic argument slices.
func checkZeroAllocArgs(pass *Pass, call *ast.CallExpr, fn *types.Func) {
	info := pass.Pkg.Info
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis == token.NoPos && i == params.Len()-1 {
				pass.Reportf(call.Pos(), "variadic call to %s allocates its argument slice in a zeroalloc function", fn.Name())
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || info.Types[arg].IsNil() {
			continue
		}
		if boxes(pt, at) {
			pass.Reportf(arg.Pos(), "passing %s as %s boxes it in a zeroalloc function", at, pt)
		}
	}
}

// checkZeroAllocAssign flags interface boxing and map writes.
func checkZeroAllocAssign(pass *Pass, assign *ast.AssignStmt) {
	info := pass.Pkg.Info
	for i, lhs := range assign.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := info.Types[idx.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(lhs.Pos(), "map write may allocate in a zeroalloc function")
				}
			}
		}
		if assign.Tok != token.ASSIGN || i >= len(assign.Rhs) {
			continue
		}
		lt := info.Types[lhs].Type
		rhs := assign.Rhs[i]
		rt := info.Types[rhs].Type
		if lt != nil && rt != nil && !info.Types[rhs].IsNil() && boxes(lt, rt) {
			pass.Reportf(rhs.Pos(), "assignment boxes %s into %s in a zeroalloc function", rt, lt)
		}
	}
}

// checkZeroAllocReturn flags interface boxing at return statements.
func checkZeroAllocReturn(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	info := pass.Pkg.Info
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return // multi-value forwarding; give up
	}
	for i, res := range ret.Results {
		rt := info.Types[res].Type
		if rt == nil || info.Types[res].IsNil() {
			continue
		}
		if boxes(results.At(i).Type(), rt) {
			pass.Reportf(res.Pos(), "return boxes %s into %s in a zeroalloc function", rt, results.At(i).Type())
		}
	}
}

// boxes reports whether a src value stored as dst is converted from a
// concrete type to an interface. A type parameter counts as concrete on
// either side: go/types gives it its constraint as underlying type, but the
// compiler stencils it to a value shape, so T(n) and f(v T) box nothing.
func boxes(dst, src types.Type) bool {
	return isInterface(dst) && !isInterface(src)
}

func isInterface(t types.Type) bool {
	if _, ok := types.Unalias(t).(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
