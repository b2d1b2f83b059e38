package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader type-checks the module from source with zero third-party
// dependencies: `go list -export -json -deps` names every package's
// compiler export data in the build cache, a lookup-function importer
// (go/importer.ForCompiler) resolves imports from it, and go/types checks
// the module's own packages from their parsed sources. That yields full
// AST + type information for the code under analysis without needing
// golang.org/x/tools.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Export     string
	GoFiles    []string
	Dir        string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load loads and type-checks the packages matched by patterns (relative
// to dir), plus type information for everything they import, and returns
// a Program over the module's own packages.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Export,GoFiles,Dir,Standard,Module,Error",
		"-deps", "--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var mods []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && !p.Standard {
			mods = append(mods, p)
		}
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("analysis: no module packages match %v", patterns)
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	prog := &Program{
		Fset:       fset,
		Directives: newIndex(),
		sourcePkgs: map[string]bool{},
	}
	for _, p := range mods {
		prog.sourcePkgs[p.ImportPath] = true
	}
	for _, p := range mods {
		var files []*ast.File
		var names []string
		for _, name := range p.GoFiles {
			names = append(names, filepath.Join(p.Dir, name))
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			files = append(files, f)
		}
		pkg, err := typeCheck(fset, imp, p.ImportPath, files, prog)
		if err != nil {
			return nil, err
		}
		pkg.Dir = p.Dir
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// LoadFiles type-checks the given source files as a single package with
// import path pkgPath, resolving their (standard-library) imports from
// compiler export data. It backs the analyzer fixture tests.
func LoadFiles(pkgPath string, filenames ...string) (*Program, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			path := spec.Path.Value
			importSet[path[1:len(path)-1]] = true
		}
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		args := []string{"list", "-e", "-export", "-json=ImportPath,Export,Error", "-deps", "--"}
		for path := range importSet {
			args = append(args, path)
		}
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listPkg
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("analysis: go list output: %w", err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	prog := &Program{
		Fset:       fset,
		Directives: newIndex(),
		sourcePkgs: map[string]bool{pkgPath: true},
	}
	pkg, err := typeCheck(fset, exportImporter(fset, exports), pkgPath, files, prog)
	if err != nil {
		return nil, err
	}
	prog.Packages = append(prog.Packages, pkg)
	return prog, nil
}

// exportImporter resolves imports from the build cache's export data.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typeCheck checks one package from source and indexes its directives.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File, prog *Program) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Files: files, Types: tpkg, Info: info}
	prog.Directives.indexPackage(fset, pkg)
	return pkg, nil
}
