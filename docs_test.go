package main

import (
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
)

// TestDocsCiteWhatExists fails when a linted document names something that is
// not in the tree: a backticked path under one of the repository's
// directories (globs must match something), a backticked bare file name, a
// Test*/Benchmark* function (a trailing * makes it a prefix), or a `make`
// target. What a run leaves behind (bench/out/) and placeholders inside
// longer commands are not paths of the tree and are skipped.
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
