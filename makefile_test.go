package taskprov_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileGatesSelectTests keeps the CI gates from rotting silently. The
// Makefile picks tests by name (`go test -run 'A|B' ./pkg/`), and go test is
// content to run nothing, so a renamed test simply leaves its gate. Every
// |-alternative of every -run (and -fuzz) pattern must match at least one
// Test/Fuzz function in the packages its command names.
func TestMakefileGatesSelectTests(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	commands := strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n")
	checked := 0
	for _, cmd := range commands {
		// $$ is make's escape for the shell's $.
		words := strings.Fields(strings.ReplaceAll(cmd, "$$", "$"))
		if len(words) < 2 || words[0] != "$(GO)" || words[1] != "test" {
			continue
		}
		var patterns, pkgs []string
		for i, w := range words {
			switch {
			case (w == "-run" || w == "-fuzz") && i+1 < len(words):
				patterns = append(patterns, strings.Trim(words[i+1], "'"))
			case strings.HasSuffix(w, "..."):
				if len(patterns) > 0 {
					t.Fatalf("%q selects by name over a package wildcard; name the packages", cmd)
				}
			case strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		var names []string
		for _, pkg := range pkgs {
			names = append(names, testFuncs(t, pkg)...)
		}
		for _, pattern := range patterns {
			for _, alt := range strings.Split(pattern, "|") {
				if alt == "^$" {
					continue // "run no tests", beside a -bench or -fuzz
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("%q: alternative %q: %v", cmd, alt, err)
				}
				checked++
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("Makefile: %q matches no test in %v", alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no `$(GO) test -run` command in the Makefile")
	}
}

// testFuncs lists the Test* and Fuzz* functions of the package in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
