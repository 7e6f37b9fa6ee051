// Command detlint is the determinism lint wall: a stdlib go/ast pass
// over the repository's non-test sources enforcing the invariants the
// golden and fuzzing oracles depend on — byte-identical output for
// identical input.
//
// Rules:
//
//   - range-map: no `range` over a map in the packages that serialize
//     output (internal/service, internal/report, cmd/figures). Go map
//     iteration order is randomized per run, so a map range feeding a
//     response document, table or figure breaks byte-determinism in the
//     worst way: rarely, and only in production. Iterate a sorted key
//     slice or a dense index instead. Map-ness is resolved
//     syntactically at package scope (declared types, make/literal
//     assignments, struct fields, package-local constructors), so the
//     rule has no false positives and misses only maps smuggled through
//     interfaces — reviews catch those.
//   - time-now: no time.Now/time.Since outside the allowlist. Wall
//     clocks in the analysis or rendering path make output depend on
//     when it ran.
//   - math-rand: no math/rand import outside the allowlist. The only
//     sanctioned randomness is internal/gen's seeded program generator.
//
// Suppressions: a `//detlint:allow <rule>` comment on the offending
// line (or the line above) silences one rule for that line. The baked-in
// allowlist below carries the repository's sanctioned uses — the serving
// layer's request-latency clock and the program generator's seeded
// randomness — so new uses need either a review-visible annotation or an
// entry here.
//
// Usage:
//
//	detlint            # lint the repository rooted at the cwd
//	detlint -root DIR  # lint another tree
//
// Exit status 1 when any finding is reported; findings print one per
// line as path:line:col: [rule] message. CI runs detlint in the lint
// job beside scripts/doc_lint.sh.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// serializedPkgs are the directories (relative to the module root) whose
// output must be byte-deterministic: the range-map rule applies here.
var serializedPkgs = map[string]bool{
	"internal/api":        true,
	"internal/api/client": true,
	"internal/cluster":    true,
	"internal/service":    true,
	"internal/report":     true,
	"internal/obs":        true,
	"cmd/figures":         true,
}

// allowlist maps a path prefix (a file or a directory, relative to the
// module root) to the rules sanctioned under it.
var allowlist = map[string][]string{
	// The serving layer measures request latency for /metricz; the
	// wall clock never reaches a response document.
	"internal/service/service.go": {"time-now"},
	// The program generator is the sanctioned randomness: a seeded,
	// versioned PRNG whose whole point is reproducible pseudo-random
	// programs.
	"internal/gen": {"math-rand"},
}

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

func main() {
	root := flag.String("root", ".", "module root to lint")
	flag.Parse()

	findings, err := Lint(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// Lint walks every non-test .go file under root (skipping testdata and
// dot-directories) and returns the findings sorted by position.
func Lint(root string) ([]Finding, error) {
	dirs := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		dirs[dir] = append(dirs[dir], path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []Finding
	for _, files := range dirs {
		fs, err := lintPackage(root, files)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}

// lintPackage parses one directory's files together (map-ness is
// resolved at package scope) and checks each file.
func lintPackage(root string, files []string) ([]Finding, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	rels := make([]string, len(files))
	for i, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		rels[i] = filepath.ToSlash(rel)
	}

	maps := collectMaps(parsed)
	var out []Finding
	for i, f := range parsed {
		rel := rels[i]
		allowed := suppressions(fset, f)
		emit := func(pos token.Pos, rule, msg string) {
			p := fset.Position(pos)
			p.Filename = rel
			if ruleAllowed(rel, rule) || allowed[lineRule{p.Line, rule}] {
				return
			}
			out = append(out, Finding{Pos: p, Rule: rule, Msg: msg})
		}
		checkFile(f, filepath.ToSlash(filepath.Dir(rel)), maps, emit)
	}
	return out, nil
}

// ruleAllowed reports whether the baked-in allowlist sanctions rule for
// the given module-relative path.
func ruleAllowed(rel, rule string) bool {
	for prefix, rules := range allowlist {
		if rel != prefix && !strings.HasPrefix(rel, prefix+"/") {
			continue
		}
		for _, r := range rules {
			if r == rule {
				return true
			}
		}
	}
	return false
}

type lineRule struct {
	line int
	rule string
}

// suppressions collects `//detlint:allow <rule>` directives: each one
// silences the rule on its own line and the line below (so the directive
// can sit above the offending statement).
func suppressions(fset *token.FileSet, f *ast.File) map[lineRule]bool {
	out := map[lineRule]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "detlint:allow") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, rule := range strings.Fields(strings.TrimPrefix(text, "detlint:allow")) {
				out[lineRule{line, rule}] = true
				out[lineRule{line + 1, rule}] = true
			}
		}
	}
	return out
}

// mapSets is the package-scope syntactic map-ness index.
type mapSets struct {
	names  map[string]bool // idents declared with map type or map make/literal
	fields map[string]bool // struct field names with map type
	funcs  map[string]bool // package funcs returning a map
	types  map[string]bool // named types whose definition is a map
}

// collectMaps builds the package's map-ness index in two passes: named
// map types first, then every declaration site that uses them.
func collectMaps(files []*ast.File) *mapSets {
	m := &mapSets{
		names:  map[string]bool{},
		fields: map[string]bool{},
		funcs:  map[string]bool{},
		types:  map[string]bool{},
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, isMap := ts.Type.(*ast.MapType); isMap {
					m.types[ts.Name.Name] = true
				}
			}
			return true
		})
	}
	isMapType := m.isMapTypeExpr
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if n.Type != nil && isMapType(n.Type) {
					for _, name := range n.Names {
						m.names[name.Name] = true
					}
				}
				for i, v := range n.Values {
					if i < len(n.Names) && m.isMapValue(v) {
						m.names[n.Names[i].Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && m.isMapValue(rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							m.names[id.Name] = true
						}
					}
				}
			case *ast.Field:
				if isMapType(n.Type) {
					for _, name := range n.Names {
						m.fields[name.Name] = true
						m.names[name.Name] = true // params and results are plain idents
					}
				}
			case *ast.FuncDecl:
				if n.Type.Results != nil {
					for _, r := range n.Type.Results.List {
						if len(r.Names) == 0 && isMapType(r.Type) {
							m.funcs[n.Name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return m
}

func (m *mapSets) isMapTypeExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return m.types[e.Name]
	}
	return false
}

// isMapValue reports whether the expression syntactically produces a map:
// a map literal, make(map...), or a call of a package-local map-returning
// function.
func (m *mapSets) isMapValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return e.Type != nil && m.isMapTypeExpr(e.Type)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if id.Name == "make" && len(e.Args) > 0 {
				return m.isMapTypeExpr(e.Args[0])
			}
			return m.funcs[id.Name]
		}
	}
	return false
}

// rangesOverMap reports whether the range expression is map-typed per
// the package index.
func (m *mapSets) rangesOverMap(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.ParenExpr:
		return m.rangesOverMap(x.X)
	case *ast.Ident:
		return m.names[x.Name]
	case *ast.SelectorExpr:
		return m.fields[x.Sel.Name]
	}
	return m.isMapValue(x)
}

// checkFile runs every rule over one file.
func checkFile(f *ast.File, dir string, maps *mapSets, emit func(token.Pos, string, string)) {
	timeName, randSpec := importNames(f)
	if randSpec != nil {
		emit(randSpec.Pos(), "math-rand",
			"math/rand import: the only sanctioned randomness is internal/gen's seeded generator")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if serializedPkgs[dir] && maps.rangesOverMap(n.X) {
				emit(n.Pos(), "range-map",
					"range over a map in a package that serializes output: iteration order is randomized per run — iterate a sorted key slice instead")
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName {
				if n.Sel.Name == "Now" || n.Sel.Name == "Since" {
					emit(n.Pos(), "time-now",
						"wall-clock read (time."+n.Sel.Name+"): deterministic paths must not depend on when they ran")
				}
			}
		}
		return true
	})
}

// importNames returns the local name binding the time import ("" when
// time is not imported) and the math/rand import spec if present.
func importNames(f *ast.File) (timeName string, randSpec *ast.ImportSpec) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch path {
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		case "math/rand", "math/rand/v2":
			randSpec = imp
		}
	}
	return
}
