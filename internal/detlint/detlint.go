// Package detlint is a determinism lint for the runtime's own Go source:
// it forbids, inside the engine-deterministic packages, the stdlib
// constructs whose behavior varies between runs and would silently break
// the deterministic engines' run-twice guarantees:
//
//   - wall-clock reads (time.Now / time.Since / time.Until),
//   - math/rand (seeded nondeterministically since Go 1.20),
//   - iteration over maps (randomized order),
//   - select statements with two or more cases (runtime picks uniformly
//     among ready cases).
//
// A construct that is deliberately nondeterministic — wall-time measurement,
// an order-independent map reduction, a channel handoff where every ready
// case commutes — is allowed when annotated with a
//
//	//lazydet:nondeterministic <reason>
//
// directive on the same line, the line above, the enclosing function's
// declaration, or the file's package doc. The reason is required reading for
// reviewers, not parsed.
//
// The lint mirrors the shape of a golang.org/x/tools/go/analysis pass but is
// built on the standard library only (go/ast, go/parser, go/types with a
// stub importer), so the repository carries no external dependencies.
// Cross-package types resolve to stubs; a range over a value whose type
// cannot be resolved is not reported (best-effort, never spurious).
package detlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Directive is the annotation that marks deliberate nondeterminism.
const Directive = "//lazydet:nondeterministic"

// Rule names a lint rule.
type Rule string

const (
	RuleWallClock Rule = "wall-clock"
	RuleMathRand  Rule = "math-rand"
	RuleMapRange  Rule = "map-range"
	RuleSelect    Rule = "select"
)

// Finding is one determinism violation.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    Rule   `json:"rule"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Message)
}

// DefaultDirs returns the engine-deterministic package directories under
// root: the packages on the deterministic execution path, where run-to-run
// variance is a correctness bug rather than a style concern.
// internal/engine/direct (the pthreads baseline) is deliberately absent —
// it is nondeterministic by design.
func DefaultDirs(root string) []string {
	rel := []string{
		"internal/dvm",
		"internal/dlc",
		"internal/detsync",
		"internal/core",
		"internal/vheap",
		"internal/shmem",
		"internal/invariant",
		"internal/trace",
		"internal/opensim",
		"internal/experiments",
	}
	dirs := make([]string, len(rel))
	for i, r := range rel {
		dirs[i] = filepath.Join(root, filepath.FromSlash(r))
	}
	return dirs
}

// LintDirs lints every non-test Go file of each directory and returns the
// unsuppressed findings, sorted by file and line.
func LintDirs(dirs []string) ([]Finding, error) {
	var all []Finding
	for _, dir := range dirs {
		fs, err := lintDir(dir)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Line < all[j].Line
	})
	return all, nil
}

func lintDir(dir string) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("detlint: %w", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("detlint: %w", err)
		}
		files = append(files, f)
	}
	return LintFiles(fset, files), nil
}

// LintFiles lints already-parsed files belonging to one package. Exported
// for tests and for callers that hold sources in memory.
func LintFiles(fset *token.FileSet, files []*ast.File) []Finding {
	if len(files) == 0 {
		return nil
	}
	info := typeCheck(fset, files)
	var findings []Finding
	for _, f := range files {
		findings = append(findings, lintFile(fset, f, info)...)
	}
	return findings
}

// typeCheck runs go/types over the files with a stub importer, tolerating
// errors. Locally declared types (including map-typed fields of package
// structs) resolve; anything reaching into another package degrades to an
// invalid type, which the map-range rule then skips.
func typeCheck(fset *token.FileSet, files []*ast.File) *types.Info {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer:         stubImporter{},
		Error:            func(error) {}, // best-effort: partial info is enough
		IgnoreFuncBodies: false,
	}
	pkgName := files[0].Name.Name
	_, _ = conf.Check(pkgName, fset, files, info)
	return info
}

// stubImporter satisfies every import with an empty package, so
// type-checking proceeds without reading other packages' sources.
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p, nil
}

// lintFile applies the rules to one file.
func lintFile(fset *token.FileSet, f *ast.File, info *types.Info) []Finding {
	sup := collectSuppressions(fset, f)
	if sup.file {
		return nil
	}

	// Resolve the local names of the time and math/rand imports.
	var findings []Finding
	timeNames := map[string]bool{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		}
		switch path {
		case "time":
			if local == "" {
				local = "time"
			}
			timeNames[local] = true
		case "math/rand", "math/rand/v2":
			if !sup.allows(fset, imp.Pos()) {
				pos := fset.Position(imp.Pos())
				findings = append(findings, Finding{
					File: pos.Filename, Line: pos.Line, Rule: RuleMathRand,
					Message: fmt.Sprintf("import of %s: nondeterministically seeded", path),
				})
			}
		}
	}
	return append(findings, lintBody(fset, f, info, sup, timeNames)...)
}

func lintBody(fset *token.FileSet, f *ast.File, info *types.Info, sup suppressions, timeNames map[string]bool) []Finding {
	var findings []Finding
	add := func(pos token.Pos, rule Rule, msg string) {
		if sup.allows(fset, pos) {
			return
		}
		p := fset.Position(pos)
		findings = append(findings, Finding{File: p.Filename, Line: p.Line, Rule: rule, Message: msg})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && timeNames[id.Name] && id.Obj == nil {
					switch sel.Sel.Name {
					case "Now", "Since", "Until":
						add(x.Pos(), RuleWallClock,
							fmt.Sprintf("%s.%s reads the wall clock; deterministic code must not branch on it", id.Name, sel.Sel.Name))
					}
				}
			}

		case *ast.RangeStmt:
			if t := info.Types[x.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					add(x.Pos(), RuleMapRange,
						"iteration over a map: order is randomized per run")
				}
			}

		case *ast.SelectStmt:
			if len(x.Body.List) >= 2 {
				add(x.Pos(), RuleSelect,
					fmt.Sprintf("select with %d cases: the runtime picks uniformly among ready cases", len(x.Body.List)))
			}
		}
		return true
	})
	return findings
}

// suppressions records where the directive appears in a file.
type suppressions struct {
	file  bool
	lines map[int]bool // lines bearing the directive
	funcs []funcSpan   // functions whose declaration carries the directive
}

type funcSpan struct{ start, end int }

// allows reports whether a finding at pos is suppressed: a directive on its
// line or the line above, or on the enclosing function's declaration.
func (s suppressions) allows(fset *token.FileSet, pos token.Pos) bool {
	line := fset.Position(pos).Line
	if s.lines[line] || s.lines[line-1] {
		return true
	}
	for _, f := range s.funcs {
		if line >= f.start && line <= f.end {
			return true
		}
	}
	return false
}

func collectSuppressions(fset *token.FileSet, f *ast.File) suppressions {
	s := suppressions{lines: map[int]bool{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, Directive) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			s.lines[line] = true
			if f.Doc != nil && cg == f.Doc {
				s.file = true
			}
		}
	}
	// A directive in the function doc comment (or on its first line)
	// suppresses the whole body.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		start := fset.Position(fd.Pos()).Line
		end := fset.Position(fd.End()).Line
		docHit := false
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, Directive) {
					docHit = true
				}
			}
		}
		if docHit || s.lines[start] {
			s.funcs = append(s.funcs, funcSpan{start, end})
		}
	}
	return s
}
