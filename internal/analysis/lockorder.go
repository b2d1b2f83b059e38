package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph and reports
// cycles — the static signature of a potential deadlock. A node is one
// mutex identity (a sync.Mutex/RWMutex struct field or package-level
// variable, named <pkg>.<Type>.<field>); an edge a→b is recorded when
// some function acquires b while holding a, either directly or through a
// static call chain (f holds a and calls g, which — transitively —
// acquires b). Held-ness uses the same linear source-order replay as
// lockguard: Lock/RLock acquires, a non-deferred Unlock releases, a
// deferred unlock holds to function end. A mutex re-acquired while already
// held (possibly through calls) is reported as a self-deadlock candidate.
//
// Calls through func values are invisible: a callback invoked under a
// lock that re-enters its owner is not an edge (tier-1 catches that one by
// hanging). The graph is instance-insensitive: two locks of the same field
// on different instances collapse into one node, which over-approximates.
// A false cycle from that collapse is suppressed at its witness line with
// //deepsketch:ignore lockorder <reason>.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the module-wide lock-acquisition graph must stay acyclic",
	Run:  runLockOrder,
}

// lockEdge is one observed acquisition ordering.
type lockEdge struct {
	from, to string
	pos      token.Pos // witness: the inner acquisition or call site
	via      string    // callee funcKey for call-propagated edges, "" for direct
}

func runLockOrder(pass *Pass) error {
	pass.Prog.lockOnce.Do(func() { pass.Prog.lockDiags = computeLockOrder(pass.Prog) })
	// Diagnostics are computed once program-wide; each is emitted through
	// the pass whose package owns its file, so ignores and per-package
	// attribution keep working.
	for _, d := range pass.Prog.lockDiags {
		if pass.Pkg.ContainsFile(pass.Prog.Fset, d.Pos.Filename) {
			if pass.Prog.Directives.ignored(pass.Analyzer.Name, d.Pos.Filename, d.Pos.Line) {
				continue
			}
			*pass.diags = append(*pass.diags, d)
		}
	}
	return nil
}

func computeLockOrder(prog *Program) []Diagnostic {
	var (
		edges    []lockEdge
		acquires = map[string]map[string]bool{} // funcKey -> mutex nodes acquired directly
		callees  = map[string][]string{}        // funcKey -> static callees (source packages)
		// callsUnderLock: calls made while holding at least one mutex.
		callsUnder []struct {
			held   []string
			callee string
			pos    token.Pos
		}
	)

	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := declKey(pkg.Info, fd)
				if caller == "" {
					continue
				}
				type event struct {
					pos      token.Pos
					node     string // mutex node for kind 1/2
					kind     int    // 1 acquire, 2 release, 3 call
					callee   string
					deferred bool
				}
				var events []event
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncLit:
						// A closure's body runs when the closure is called,
						// not where it is written: replaying it as part of
						// the enclosing function's lock sequence would
						// fabricate held-sets (a retry helper that locks
						// adminMu is not "adminMu held" at its definition).
						// Closures are opaque to the analysis.
						return false
					case *ast.GoStmt:
						// A goroutine starts on a fresh stack with an empty
						// lock set; the launcher's held locks do not
						// transfer, so the launched call is not a
						// synchronous call edge. (Whether the goroutine is
						// ever joined is goroleak's question.)
						return false
					case *ast.DeferStmt:
						if node, m := mutexMethodCall(pkg.Info, n.Call); m == "Unlock" || m == "RUnlock" {
							events = append(events, event{pos: n.Pos(), node: node, kind: 2, deferred: true})
							return false
						}
					case *ast.CallExpr:
						if node, m := mutexMethodCall(pkg.Info, n); node != "" {
							switch m {
							case "Lock", "RLock":
								events = append(events, event{pos: n.Pos(), node: node, kind: 1})
							case "Unlock", "RUnlock":
								events = append(events, event{pos: n.Pos(), node: node, kind: 2})
							}
							return true
						}
						if fn := calleeFunc(pkg.Info, n); fn != nil && fn.Pkg() != nil && prog.sourcePkgs[fn.Pkg().Path()] {
							events = append(events, event{pos: n.Pos(), kind: 3, callee: funcKey(fn)})
						}
					}
					return true
				})
				sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

				held := map[string]bool{}
				for _, e := range events {
					switch e.kind {
					case 1:
						for h := range held {
							edges = append(edges, lockEdge{from: h, to: e.node, pos: e.pos})
						}
						held[e.node] = true
						if acquires[caller] == nil {
							acquires[caller] = map[string]bool{}
						}
						acquires[caller][e.node] = true
					case 2:
						if !e.deferred {
							delete(held, e.node)
						}
					case 3:
						callees[caller] = append(callees[caller], e.callee)
						if len(held) > 0 {
							snapshot := make([]string, 0, len(held))
							for h := range held {
								snapshot = append(snapshot, h)
							}
							sort.Strings(snapshot)
							callsUnder = append(callsUnder, struct {
								held   []string
								callee string
								pos    token.Pos
							}{snapshot, e.callee, e.pos})
						}
					}
				}
			}
		}
	}

	// Transitive lock sets: every mutex a function may acquire through
	// static calls within the module.
	lockSets := transitiveLockSets(acquires, callees)

	for _, cu := range callsUnder {
		for b := range lockSets[cu.callee] {
			for _, h := range cu.held {
				edges = append(edges, lockEdge{from: h, to: b, pos: cu.pos, via: cu.callee})
			}
		}
	}

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "lockorder",
			Pos:      prog.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}

	// Self-edges: a mutex (re-)acquired while already held.
	seenSelf := map[string]bool{}
	for _, e := range edges {
		if e.from != e.to || seenSelf[e.from+e.via] {
			continue
		}
		seenSelf[e.from+e.via] = true
		if e.via != "" {
			report(e.pos, "%s is already held at this call to %s, which acquires it again (self-deadlock for Mutex, writer-starvation deadlock for RWMutex)", displayLock(e.from), e.via)
		} else {
			report(e.pos, "%s is acquired while already held (self-deadlock)", displayLock(e.from))
		}
	}

	// Cycles: strongly connected components of size > 1 (self-edges were
	// reported above).
	diags = append(diags, lockCycles(prog, edges)...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return diags
}

// transitiveLockSets closes the direct-acquire sets over the call graph.
func transitiveLockSets(acquires map[string]map[string]bool, callees map[string][]string) map[string]map[string]bool {
	sets := map[string]map[string]bool{}
	for fn, direct := range acquires {
		sets[fn] = map[string]bool{}
		for n := range direct {
			sets[fn][n] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for fn, cs := range callees {
			for _, c := range cs {
				for n := range sets[c] {
					if sets[fn] == nil {
						sets[fn] = map[string]bool{}
					}
					if !sets[fn][n] {
						sets[fn][n] = true
						changed = true
					}
				}
			}
		}
	}
	return sets
}

// lockCycles reports one diagnostic per strongly connected component of
// the acquisition graph, anchored at the lexicographically first observed
// witness edge inside the component.
func lockCycles(prog *Program, edges []lockEdge) []Diagnostic {
	adj := map[string]map[string]bool{}
	nodes := map[string]bool{}
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
		nodes[e.from], nodes[e.to] = true, true
	}

	// Tarjan's SCC.
	var (
		index    = map[string]int{}
		lowlink  = map[string]int{}
		onStack  = map[string]bool{}
		stack    []string
		counter  int
		sccs     [][]string
		strongly func(v string)
	)
	strongly = func(v string) {
		index[v] = counter
		lowlink[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongly(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			} else if onStack[w] {
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	var sorted []string
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if _, seen := index[n]; !seen {
			strongly(n)
		}
	}

	var diags []Diagnostic
	for _, scc := range sccs {
		sort.Strings(scc)
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		// Witness: the first edge inside the component.
		var witness *lockEdge
		for i := range edges {
			e := &edges[i]
			if e.from == e.to || !inSCC[e.from] || !inSCC[e.to] {
				continue
			}
			if witness == nil || e.pos < witness.pos {
				witness = e
			}
		}
		names := make([]string, len(scc))
		for i, n := range scc {
			names[i] = displayLock(n)
		}
		suffix := ""
		if witness.via != "" {
			suffix = " via call to " + witness.via
		}
		diags = append(diags, Diagnostic{
			Analyzer: "lockorder",
			Pos:      prog.Fset.Position(witness.pos),
			Message: fmt.Sprintf("potential deadlock: lock-acquisition cycle between %s (witness: %s acquired while holding %s%s)",
				strings.Join(names, ", "), displayLock(witness.to), displayLock(witness.from), suffix),
		})
	}
	return diags
}

// mutexMethodCall matches <expr>.<mu>.Lock()/RLock()/Unlock()/RUnlock()
// where <mu> is a sync.Mutex/RWMutex struct field or package-level
// variable, and returns the mutex node id plus the method name.
func mutexMethodCall(info *types.Info, call *ast.CallExpr) (node, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	id := lockNodeID(info, sel.X)
	if id == "" {
		return "", ""
	}
	return id, sel.Sel.Name
}

// lockNodeID names the mutex expression: pkgpath.Type.field for struct
// fields, pkgpath.var for package-level mutexes, "" when the owner cannot
// be named (locals, map/slice elements).
func lockNodeID(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// Struct field: name it by the owning named type.
		if selInfo, ok := info.Selections[e]; ok {
			owner := selInfo.Recv()
			if ptr, ok := owner.(*types.Pointer); ok {
				owner = ptr.Elem()
			}
			if named, ok := owner.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
			return ""
		}
		// Package-qualified variable: pkg.Mu.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		// Package-level mutex referenced unqualified from its own package.
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// displayLock shortens a node id to its last path segment:
// deepsketch/internal/wal.Log.mu → wal.Log.mu.
func displayLock(id string) string { return path.Base(id) }
