package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsLinted are the documents that describe the system as it is. Each may
// name a repository path, a test or benchmark function, or a make target
// only if it exists.
var docsLinted = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	fencedRE   = regexp.MustCompile("(?s)```.*?```")
	spanRE     = regexp.MustCompile("`([^`]+)`")
	funcNameRE = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z]\w*\*?`)
	funcDeclRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	targetRE   = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
	bareFileRE = regexp.MustCompile(`^[\w.*-]+\.(?:go|json|md|tsv|sh|yml)$`)
	goIdentRE  = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*(?:\.\w+)?)$`)
)

// TestDocsCiteWhatExists fails when a linted document names something that is
// not in the tree: a backticked path under one of the repository's
// directories (globs must match something), a backticked bare file name, a
// Test*/Benchmark* function (a trailing * makes it a prefix), a `make`
// target, or a Go identifier: a span that is all `pkg.Ident` or
// `pkg.Ident.Member` (Ident capitalised), where pkg is a directory under
// internal/ or cmd/, must name a declaration of that package (test files
// included; a bare method name counts). What a run
// leaves behind (bench/out/) and placeholders inside longer commands are not
// paths of the tree and are skipped.
func TestDocsCiteWhatExists(t *testing.T) {
	funcs, files := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcDeclRE.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRE.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	roots, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range roots {
		if e.IsDir() && e.Name() != ".git" {
			dirs[e.Name()] = true
		}
	}
	decls := goDecls(t)
	exists := func(pattern string) bool {
		m, _ := filepath.Glob(pattern)
		return len(m) > 0
	}

	for _, doc := range docsLinted {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedRE.ReplaceAllString(string(raw), "")
		for _, name := range funcNameRE.FindAllString(text, -1) {
			ok := funcs[name]
			if prefix, isPrefix := strings.CutSuffix(name, "*"); isPrefix {
				for f := range funcs {
					ok = ok || strings.HasPrefix(f, prefix)
				}
			}
			if !ok {
				t.Errorf("%s: %s is not a test or benchmark in the tree", doc, name)
			}
		}
		for _, m := range spanRE.FindAllStringSubmatch(text, -1) {
			if id := goIdentRE.FindStringSubmatch(m[1]); id != nil && decls[id[1]] != nil &&
				!bareFileRE.MatchString(m[1]) && !decls[id[1]][id[2]] {
				t.Errorf("%s: `%s` is not declared in package %s", doc, m[1], id[1])
			}
			words := strings.Fields(m[1])
			for i, w := range words {
				if w == "make" && i+1 < len(words) && !targets[words[i+1]] {
					t.Errorf("%s: `make %s` is not a Makefile target", doc, words[i+1])
				}
				w = strings.TrimPrefix(strings.TrimRight(w, ".,;:)'\""), "./")
				if strings.ContainsAny(w, "{}<>$…=") || strings.Contains(w, "...") || strings.HasPrefix(w, "bench/out/") {
					continue
				}
				if first, _, nested := strings.Cut(w, "/"); nested {
					if dirs[first] && !exists(w) {
						t.Errorf("%s: `%s` does not exist", doc, w)
					}
				} else if len(words) == 1 && bareFileRE.MatchString(w) && !files[w] && !exists(w) {
					t.Errorf("%s: no file named `%s` in the tree", doc, w)
				}
			}
		}
	}
}

// goDecls maps each package directory under internal/ and cmd/ to what its
// files declare, test files included: top-level names and method names as
// "Name", and methods, struct fields and interface methods as
// "Type.Member". Two directories of one name (internal/eval, cmd/eval)
// share an entry.
func goDecls(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("*", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		root, rest, _ := strings.Cut(filepath.ToSlash(path), "/")
		if root != "internal" && root != "cmd" {
			continue
		}
		pkg, _, _ := strings.Cut(rest, "/")
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		names := decls[pkg]
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
				if d.Recv != nil {
					names[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members *ast.FieldList
						switch ty := spec.Type.(type) {
						case *ast.StructType:
							members = ty.Fields
						case *ast.InterfaceType:
							members = ty.Methods
						}
						if members == nil {
							continue
						}
						for _, m := range members.List {
							for _, n := range m.Names {
								names[spec.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// recvType is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
