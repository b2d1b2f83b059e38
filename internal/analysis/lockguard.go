package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LockGuard checks mutex discipline declared on struct fields: a field
// whose comment ends in "guarded by <mu>" (where <mu> is a sibling
// sync.Mutex or sync.RWMutex field) may only be accessed through the
// receiver in methods of that struct while <mu> is held. Held-ness is
// tracked by a linear source-order scan of each method body — Lock/RLock
// acquires, a non-deferred Unlock/RUnlock releases, a deferred unlock
// holds to function end — which matches the lock-at-top/defer-unlock
// shape this codebase uses everywhere. Methods annotated
// //deepsketch:locked <mu>, or named *Locked, are assumed to be called
// with the lock held, and their callers are checked instead: a call on the
// receiver to such a method needs <mu> held like a guarded field access
// does (for *Locked, <mu> is the struct's guard when its guarded fields
// name exactly one). Plain functions (e.g. constructors touching a
// not-yet-shared value) are out of scope, as are guards living in a
// different struct ("guarded by Monitor.mu" is prose, not a checkable
// annotation).
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated 'guarded by <mu>' and //deepsketch:locked methods are only used with <mu> held",
	Run:  runLockGuard,
}

// guardedRe matches a comment that ends with the annotation. The capture
// may include dots so cross-struct guards can be recognized and skipped.
var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][\w.]*)\.?\s*$`)

func runLockGuard(pass *Pass) error {
	guards := collectGuards(pass)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			checkLockGuardMethod(pass, fd, guards)
		}
	}
	return nil
}

// guardInfo maps a guarded field object to its guard mutex field name.
type guardInfo map[types.Object]string

// collectGuards finds "guarded by <mu>" field annotations whose guard is
// a sibling mutex field of the same struct.
func collectGuards(pass *Pass) guardInfo {
	info := pass.Pkg.Info
	guards := guardInfo{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			siblings := map[string]bool{}
			for _, f := range st.Fields.List {
				if t := info.Types[f.Type].Type; t != nil && isMutexType(t) {
					for _, name := range f.Names {
						siblings[name.Name] = true
					}
				}
			}
			for _, f := range st.Fields.List {
				guard := guardAnnotation(f)
				if guard == "" || strings.Contains(guard, ".") {
					continue // none, or cross-struct prose
				}
				if !siblings[guard] {
					pass.Reportf(f.Pos(), "field is 'guarded by %s' but %s is not a sibling mutex field", guard, guard)
					continue
				}
				for _, name := range f.Names {
					if obj := info.Defs[name]; obj != nil {
						guards[obj] = guard
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the guard name from a field's doc or trailing
// comment.
func guardAnnotation(f *ast.Field) string {
	for _, group := range []*ast.CommentGroup{f.Comment, f.Doc} {
		if group == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(group.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockEvent is one step of the linear replay: an acquire/release of a
// guard, or a use that needs it — a guarded field access or a call to a
// method that assumes the guard held.
type lockEvent struct {
	pos      token.Pos
	guard    string // mutex field name
	kind     int    // 0 use, 1 acquire, 2 release
	use      string // "n is accessed", "lookup is called"
	deferred bool
}

func checkLockGuardMethod(pass *Pass, fd *ast.FuncDecl, guards guardInfo) {
	info := pass.Pkg.Info
	recvIdent := receiverIdent(fd)
	if recvIdent == nil {
		return
	}
	recvObj := info.Defs[recvIdent]
	if recvObj == nil {
		return
	}

	// Methods declared as holding the lock are their callers' problem.
	assumed := map[string]bool{}
	if key := declKey(info, fd); key != "" {
		for _, g := range pass.Prog.Directives.Func(key).Locked {
			assumed[g] = true
		}
	}
	allHeld := strings.HasSuffix(fd.Name.Name, "Locked")

	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if guard, kind := lockCall(info, n.Call, recvObj); kind == 2 {
				events = append(events, lockEvent{pos: n.Pos(), guard: guard, kind: 2, deferred: true})
				return false
			}
		case *ast.CallExpr:
			if guard, kind := lockCall(info, n, recvObj); kind != 0 {
				events = append(events, lockEvent{pos: n.Pos(), guard: guard, kind: kind})
				return true
			}
			name, needs := lockedCallee(pass, n, recvObj, guards)
			for _, guard := range needs {
				events = append(events, lockEvent{pos: n.Pos(), guard: guard, use: name + " is called"})
			}
		case *ast.SelectorExpr:
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || info.Uses[id] != recvObj {
				return true
			}
			sel := info.Uses[n.Sel]
			if sel == nil {
				sel = info.Defs[n.Sel]
			}
			if guard, ok := guards[sel]; ok {
				events = append(events, lockEvent{pos: n.Pos(), guard: guard, use: n.Sel.Name + " is accessed"})
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := map[string]bool{}
	for _, e := range events {
		switch e.kind {
		case 1:
			held[e.guard] = true
		case 2:
			if !e.deferred {
				held[e.guard] = false
			}
		default:
			if !held[e.guard] && !assumed[e.guard] && !allHeld {
				pass.Reportf(e.pos, "%s without holding %s (annotate //deepsketch:locked %s if the caller holds it)", e.use, e.guard, e.guard)
			}
		}
	}
}

// lockedCallee resolves recv.m(...) to the mutexes method m assumes held:
// those its //deepsketch:locked directive names, or — for a *Locked name —
// the receiver struct's guard when its guarded fields name exactly one.
func lockedCallee(pass *Pass, call *ast.CallExpr, recvObj types.Object, guards guardInfo) (string, []string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || pass.Pkg.Info.Uses[id] != recvObj {
		return "", nil
	}
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil {
		return "", nil
	}
	if locked := pass.Prog.Directives.Func(funcKey(fn)).Locked; len(locked) > 0 {
		return fn.Name(), locked
	}
	if !strings.HasSuffix(fn.Name(), "Locked") {
		return "", nil
	}
	t := recvObj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	mu := ""
	for i := 0; i < st.NumFields(); i++ {
		guard, ok := guards[st.Field(i).Origin()]
		if !ok || guard == mu {
			continue
		}
		if mu != "" {
			return "", nil // two guards: which one *Locked means is ambiguous
		}
		mu = guard
	}
	if mu == "" {
		return "", nil
	}
	return fn.Name(), []string{mu}
}

// lockCall classifies recv.<guard>.Lock()/RLock() (acquire, kind 1) and
// Unlock()/RUnlock() (release, kind 2); other calls return kind 0.
func lockCall(info *types.Info, call *ast.CallExpr, recvObj types.Object) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	base, ok := ast.Unparen(inner.X).(*ast.Ident)
	if !ok || info.Uses[base] != recvObj {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return inner.Sel.Name, 1
	case "Unlock", "RUnlock":
		return inner.Sel.Name, 2
	}
	return "", 0
}

func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}
