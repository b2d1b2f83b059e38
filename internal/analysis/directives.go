package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// FuncDirectives are the //deepsketch: annotations attached to one
// function's doc comment.
type FuncDirectives struct {
	// ZeroAlloc marks an allocation-free kernel (zeroalloc analyzer).
	ZeroAlloc bool
	// Durable declares that the function fsyncs the file named by its
	// path argument before returning (durability analyzer).
	Durable bool
	// CtxOrigin is the justification for originating a context inside an
	// internal package ("" = not exempt).
	CtxOrigin string
	// Locked lists receiver mutex fields the method assumes held.
	Locked []string
}

type ignoreKey struct {
	file string
	line int
}

// Index is the program-wide registry of //deepsketch: directives, keyed
// by funcKey so annotations resolve across packages (an annotation on
// nn.Layer.Forward is visible while analyzing mscn, where the callee
// object comes from export data rather than source).
type Index struct {
	funcs   map[string]FuncDirectives
	ignores map[ignoreKey]map[string]bool // analyzer names ignored on a line
	// Problems are malformed directives, reported by Run.
	Problems []Diagnostic
}

func newIndex() *Index {
	return &Index{
		funcs:   map[string]FuncDirectives{},
		ignores: map[ignoreKey]map[string]bool{},
	}
}

// Func returns the directives attached to fn's declaration (zero value if
// none).
func (x *Index) Func(key string) FuncDirectives { return x.funcs[key] }

// ignored reports whether the analyzer is suppressed on file:line.
func (x *Index) ignored(analyzer, file string, line int) bool {
	return x.ignores[ignoreKey{file, line}][analyzer]
}

const directivePrefix = "//deepsketch:"

// knownVerbs validates directive spelling; anything else under the
// deepsketch: prefix is reported as a problem so a typo — or a verb whose
// analyzer was deleted — cannot silently disable a check.
var knownVerbs = map[string]bool{
	"zeroalloc": true,
	"durable":   true,
	"ctxorigin": true,
	"locked":    true,
	"ignore":    true,
	"errok":     true,
}

// indexPackage scans one package's comments for directives.
func (x *Index) indexPackage(fset *token.FileSet, pkg *Package) {
	for _, file := range pkg.Files {
		// Line-level ignores and spelling validation over every comment.
		for _, group := range file.Comments {
			for _, c := range group.List {
				x.indexComment(fset, c)
			}
		}
		// Function directives from doc comments.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			key := declKey(pkg.Info, fd)
			if key == "" {
				continue
			}
			d := x.funcs[key]
			for _, c := range fd.Doc.List {
				verb, rest, ok := splitDirective(c.Text)
				if !ok {
					continue
				}
				switch verb {
				case "zeroalloc":
					d.ZeroAlloc = true
				case "durable":
					d.Durable = true
				case "ctxorigin":
					if rest == "" {
						x.problem(fset, c.Pos(), "ctxorigin directive needs a justification: //deepsketch:ctxorigin <reason>")
						continue
					}
					d.CtxOrigin = rest
				case "locked":
					if rest == "" {
						x.problem(fset, c.Pos(), "locked directive needs a mutex field: //deepsketch:locked <mu>")
						continue
					}
					d.Locked = append(d.Locked, strings.Fields(rest)...)
				}
			}
			x.funcs[key] = d
		}
	}
}

// indexComment handles one comment: line-scoped directives (ignore,
// errok) register their line and the next (so both trailing and
// standalone placements work), and unknown deepsketch: verbs become
// problems.
func (x *Index) indexComment(fset *token.FileSet, c *ast.Comment) {
	verb, rest, ok := splitDirective(c.Text)
	if !ok {
		return
	}
	if !knownVerbs[verb] {
		x.problem(fset, c.Pos(), "unknown directive //deepsketch:%s", verb)
		return
	}
	fields := strings.Fields(rest)
	pos := fset.Position(c.Pos())
	switch verb {
	case "ignore":
		if len(fields) < 2 {
			x.problem(fset, c.Pos(), "ignore directive needs an analyzer and a reason: //deepsketch:ignore <analyzer> <reason>")
			return
		}
		x.markLines(pos, func(key ignoreKey) {
			if x.ignores[key] == nil {
				x.ignores[key] = map[string]bool{}
			}
			x.ignores[key][fields[0]] = true
		})
	case "errok":
		if len(fields) < 1 {
			x.problem(fset, c.Pos(), "errok directive needs a reason: //deepsketch:errok <reason>")
			return
		}
		// errok is sugar for suppressing the errsink analyzer on the
		// discard line; it shares the ignore machinery.
		x.markLines(pos, func(key ignoreKey) {
			if x.ignores[key] == nil {
				x.ignores[key] = map[string]bool{}
			}
			x.ignores[key]["errsink"] = true
		})
	}
}

// markLines applies fn to the directive's own line and the next, so both
// trailing and standalone-above placements cover the annotated statement.
func (x *Index) markLines(pos token.Position, fn func(ignoreKey)) {
	for _, line := range []int{pos.Line, pos.Line + 1} {
		fn(ignoreKey{pos.Filename, line})
	}
}

func (x *Index) problem(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	x.Problems = append(x.Problems, Diagnostic{
		Analyzer: "directives",
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// splitDirective parses "//deepsketch:verb rest..." comments.
func splitDirective(text string) (verb, rest string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	body := text[len(directivePrefix):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i+1:]), true
	}
	return body, "", true
}
