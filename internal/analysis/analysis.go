// Package analysis is the project's static-analysis suite: seven analyzers
// that machine-check the invariants the codebase is built on but neither
// the compiler nor the tests enforce. Each one is kept because a planted
// instance of its bug class is caught by it and by nothing else in tier-1
// or -race (the table is in CHANGES.md, PR 25). Phase 1
// (intraprocedural): allocation-free packed forward kernels (zeroalloc),
// fsync-before-rename persistence (durability), caller-owned context
// plumbing (ctxpolicy), and mutex-guarded field access (lockguard). Phase
// 2 (whole-program): every goroutine launch needs a provable join or
// shutdown path (goroleak), the module-wide lock-acquisition graph must be
// acyclic (lockorder), and errors on durability/WAL/lifecycle call paths
// may not be discarded (errsink). cmd/deepsketch-lint drives the whole
// module through them; CI fails on any finding.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Report) but is self-contained on the
// standard library: packages are loaded with `go list -export` and
// type-checked from source against compiler export data (load.go), so the
// suite builds with zero third-party dependencies.
//
// # Annotation grammar
//
// Analyzers are steered by machine-readable comments (see
// docs/static-analysis.md for the full grammar):
//
//	//deepsketch:zeroalloc            function may not allocate; callees
//	                                  must be annotated or allowlisted
//	//deepsketch:durable              function fsyncs the file named by its
//	                                  path argument before returning
//	//deepsketch:ctxorigin <reason>   function may call context.Background
//	//deepsketch:locked <mu>          method is called with <mu> held
//	//deepsketch:errok <reason>       the error discard on this line is
//	                                  deliberate (errsink suppression)
//	//deepsketch:ignore <analyzer> <reason>
//	                                  suppress one analyzer on this line
//	// guarded by <mu>                struct field access requires <mu>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// An Analyzer is one named static check over a package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant it enforces.
	Doc string
	// Run analyzes one package, reporting findings via Pass.Reportf.
	Run func(*Pass) error
}

// All returns the full suite in a stable order. The first four are the
// intraprocedural phase-1 analyzers; goroleak, lockorder and errsink are
// the whole-program phase-2 analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		ZeroAlloc,
		Durability,
		CtxPolicy,
		LockGuard,
		GoroLeak,
		LockOrder,
		ErrSink,
	}
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Package is one source-loaded, type-checked package.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package's source directory on disk.
	Dir string
	// Files are the parsed source files (tests excluded).
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type information for Files.
	Info *types.Info
}

// ContainsFile reports whether filename (absolute) is one of the
// package's source files. Program-level analyzers use it to attribute
// each diagnostic to exactly one package pass.
func (p *Package) ContainsFile(fset *token.FileSet, filename string) bool {
	for _, f := range p.Files {
		if fset.Position(f.Pos()).Filename == filename {
			return true
		}
	}
	return false
}

// A Program is the full set of packages under analysis plus the shared
// directive index. Analyzers that need cross-package context (the
// module-wide lock graph, annotations on callees in sibling packages) read
// it through Pass.Prog.
type Program struct {
	Fset *token.FileSet
	// Packages are the module's source-loaded packages, in load order.
	Packages []*Package
	// Directives indexes every //deepsketch: annotation in the program.
	Directives *Index

	// sourcePkgs is the set of import paths loaded from source — the
	// boundary of cross-package analyses like the lock-acquisition graph.
	sourcePkgs map[string]bool

	declOnce sync.Once
	decls    map[string]*declSite

	lockOnce  sync.Once
	lockDiags []Diagnostic
}

// declSite locates one top-level function declaration in the program.
type declSite struct {
	fd  *ast.FuncDecl
	pkg *Package
}

// funcDecl resolves a funcKey to its source declaration, or nil when the
// function lives outside the source-loaded packages (export data only).
func (p *Program) funcDecl(key string) *declSite {
	p.declOnce.Do(func() {
		p.decls = map[string]*declSite{}
		for _, pkg := range p.Packages {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if k := declKey(pkg.Info, fd); k != "" {
						p.decls[k] = &declSite{fd: fd, pkg: pkg}
					}
				}
			}
		}
	})
	return p.decls[key]
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the program's file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Reportf records a finding at pos unless an ignore directive for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.Directives.ignored(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every package of the program and
// returns the findings sorted by position. Malformed //deepsketch:
// directives are reported first, under the pseudo-analyzer "directives".
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	diags = append(diags, prog.Directives.Problems...)
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// funcKey returns a stable cross-package identity for a function or
// method: "pkgpath.Name" or "pkgpath.Recv.Name". Type-checking loads each
// dependency twice (once from source, once from export data), so object
// pointers are not comparable across packages — string keys are.
func funcKey(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// calleeFunc resolves the static callee of a call expression, or nil for
// dynamic calls (func values, interface methods are still returned — the
// caller distinguishes them via the receiver type). A call with explicit
// type arguments, f[T](…), resolves to the generic f like an inferred one.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(inst.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(inst.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn().
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeBuiltin resolves a call to a builtin (make, append, len, ...) or
// returns "". The builtins of package unsafe are package-qualified and come
// back with their qualifier (unsafe.Sizeof, unsafe.Slice, ...).
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			return b.Name()
		}
	case *ast.SelectorExpr:
		if b, ok := info.Uses[fun.Sel].(*types.Builtin); ok {
			return "unsafe." + b.Name()
		}
	}
	return ""
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// declKey returns the funcKey of a FuncDecl via the package's Defs map,
// or "" for malformed declarations.
func declKey(info *types.Info, fd *ast.FuncDecl) string {
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		return funcKey(fn)
	}
	return ""
}
