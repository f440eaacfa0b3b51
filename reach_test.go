package taskprov_test

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"taskprov/internal/chaos"
)

// TestReach is the report side of `make reach`. tools/reach/run.sh builds
// every program covered, runs them, and passes its build dir as the one
// argument after -args, holding cover.txt (the merged profile, go tool
// covdata textfmt) and linked.txt (go list -deps of every program). The test
// fails on any function under internal/ that no program invocation executed,
// unless REACH.txt lists it with a reason. A listed function that ran, or
// that no longer exists, fails it too, so the list cannot go stale, and so
// does a non-test package under internal/ that no program links. A function
// without statements (an empty body) is never reported: coverage cannot tell
// whether it ran. Without the argument it skips.
//
// REACH.txt has one line per function, keyed by file and name (Type.Name for
// a method), never by line number, with a reason from a closed set:
//
//	internal/mofka/wal/wal.go Log.TruncateTo fault: a restarted broker drops its unacknowledged divergent tail; TestTruncateTo
//
// "fault:" a fault path, naming the test (Test*/Fuzz*) or the chaos spec
// (chaos "...") that exercises it; "seam:" a test seam; "surface:" an RPC or
// interface surface, naming its test.
func TestReach(t *testing.T) {
	dir := flag.Arg(0)
	if dir == "" {
		t.Skip("make reach runs it: go test -run '^TestReach$' . -args BUILD_DIR")
	}
	c, err := reachCheck(".", filepath.Join(dir, "cover.txt"), filepath.Join(dir, "linked.txt"), "REACH.txt")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("the programs ran %.1f %% of %d statements under internal/; %d functions ran in none, each listed in REACH.txt unless reported below (%d without statements not counted)",
		100*float64(c.coveredStmts)/float64(max(c.stmts, 1)), c.stmts, c.unreached, c.empty)
	for _, p := range c.problems {
		t.Error(p)
	}
}

// TestReachGate runs the comparison over a small tree: each way REACH.txt
// and what the programs ran can disagree is one problem.
func TestReachGate(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/x/x.go", `package x

func Ran() int { return 1 }

func Idle() int { return 2 }

func Empty() {}

type T struct{}

func (*T) Idle() int { return 3 }
`)
	write("internal/x/x_test.go", "package x\n\nimport \"testing\"\n\nfunc TestIdle(t *testing.T) {}\n")
	write("internal/y/y.go", "package y\n\nfunc Unlinked() int { return 4 }\n")
	write("cover.txt", `mode: set
taskprov/internal/x/x.go:3.18,3.28 1 1
taskprov/internal/x/x.go:5.19,5.29 1 0
taskprov/internal/x/x.go:11.23,11.33 1 0
taskprov/internal/y/y.go:3.23,3.33 1 0
taskprov/bench/e2e/main.go:1.1,2.2 1 0
`)
	write("linked.txt", "taskprov/internal/x\n")
	check := func(list string, want ...string) {
		t.Helper()
		write("REACH.txt", list)
		c, err := reachCheck(root, filepath.Join(root, "cover.txt"), filepath.Join(root, "linked.txt"), filepath.Join(root, "REACH.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if c.stmts != 4 || c.coveredStmts != 1 || c.empty != 1 {
			t.Fatalf("census %+v, want 4 statements, 1 run, 1 empty body", c)
		}
		if len(c.problems) != len(want) {
			t.Fatalf("REACH.txt %q: problems %q, want %d matching %q", list, c.problems, len(want), want)
		}
		for i, w := range want {
			if !strings.Contains(c.problems[i], w) {
				t.Errorf("REACH.txt %q: problem %d is %q, want it to contain %q", list, i, c.problems[i], w)
			}
		}
	}
	const listed = "internal/x/x.go Idle fault: TestIdle\ninternal/x/x.go T.Idle seam: an accessor\ninternal/y/y.go Unlinked seam: nothing\n"
	check(listed, "taskprov/internal/y: no program links")
	check("# nothing listed\n",
		"internal/x/x.go Idle: no program runs it",
		"internal/x/x.go T.Idle: no program runs it",
		"internal/y/y.go Unlinked: no program runs it",
		"taskprov/internal/y: no program links")
	check(listed+"internal/x/x.go Ran seam: it ran\n", "internal/x/x.go Ran: listed in", "no program links")
	check(listed+"internal/x/x.go Gone seam: it was deleted\n", "internal/x/x.go Gone: listed in", "no program links")
	check(listed+"internal/x/x.go Empty seam: empty\n", "internal/x/x.go Empty: listed in", "no program links")
	check(strings.Replace(listed, "fault: TestIdle", "fault: TestNoSuchTest", 1), "must name the test", "no program links")
	check(strings.Replace(listed, "fault: TestIdle", "guess: why not", 1), "not one of fault, seam, surface", "no program links")
	check(strings.Replace(listed, "seam: an accessor", "§VI: online", 1), `kind "§VI" is not one of fault, seam, surface`, "no program links")
}

// reachCensus is what one comparison found.
type reachCensus struct {
	problems            []string
	stmts, coveredStmts int // under internal/
	unreached, empty    int // functions
}

// reachBlock is one coverage block of the profile, merged over every binary.
type reachBlock struct {
	line, col, stmts int
	hit              bool
}

// reachFunc is one function declared under internal/, with its statements.
type reachFunc struct {
	key                 string // "FILE NAME"
	start, end          token.Position
	stmts, coveredStmts int
}

// contains reports whether a block starting at line:col lies in f.
func (f *reachFunc) contains(line, col int) bool {
	after := line > f.start.Line || line == f.start.Line && col >= f.start.Column
	before := line < f.end.Line || line == f.end.Line && col < f.end.Column
	return after && before
}

// reachCheck compares the profile with the list over the tree at root.
func reachCheck(root, profilePath, linkedPath, listPath string) (reachCensus, error) {
	var c reachCensus
	blocks, err := readReachProfile(profilePath)
	if err != nil {
		return c, err
	}
	funcs, pkgs, tests, err := parseReachTree(root)
	if err != nil {
		return c, err
	}
	for file, bs := range blocks {
		decls := funcs[file]
		for _, b := range bs {
			c.stmts += b.stmts
			if b.hit {
				c.coveredStmts += b.stmts
			}
			i := slices.IndexFunc(decls, func(f *reachFunc) bool { return f.contains(b.line, b.col) })
			if i < 0 {
				continue // a package-level var initializer
			}
			decls[i].stmts += b.stmts
			if b.hit {
				decls[i].coveredStmts += b.stmts
			}
		}
	}
	byKey := map[string]*reachFunc{}
	var unreached []string
	for _, decls := range funcs {
		for _, f := range decls {
			byKey[f.key] = f
			switch {
			case f.stmts == 0:
				c.empty++
			case f.coveredStmts == 0:
				unreached = append(unreached, f.key)
			}
		}
	}
	slices.Sort(unreached)
	c.unreached = len(unreached)

	entries, problems, err := readReachList(listPath, tests)
	if err != nil {
		return c, err
	}
	for _, k := range unreached {
		if _, ok := entries[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: no program runs it; give it a caller, delete it, or list it in REACH.txt with a reason", k))
		}
	}
	listed := make([]string, 0, len(entries))
	for k := range entries {
		listed = append(listed, k)
	}
	slices.Sort(listed)
	for _, k := range listed {
		switch f := byKey[k]; {
		case f == nil:
			problems = append(problems, k+": listed in REACH.txt but no longer declared; drop the entry")
		case f.stmts == 0:
			problems = append(problems, k+": listed in REACH.txt but has no statements to run; drop the entry")
		case f.coveredStmts > 0:
			problems = append(problems, k+": listed in REACH.txt but a program runs it now; drop the entry")
		}
	}

	data, err := os.ReadFile(linkedPath)
	if err != nil {
		return c, err
	}
	links := strings.Fields(string(data))
	for _, p := range pkgs {
		if !slices.Contains(links, p) {
			problems = append(problems, p+": no program links this package")
		}
	}
	c.problems = problems
	return c, nil
}

// readReachProfile reads a textfmt profile into the blocks of each
// repo-relative file under internal/, merged over the binaries that linked
// it: a block ran if any binary ran it. Rows of other packages (bench/e2e's
// own, which is a module of its own) are dropped.
func readReachProfile(path string) (map[string][]reachBlock, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type at struct {
		file      string
		line, col int
	}
	merged := map[at]*reachBlock{}
	var order []at
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		// taskprov/internal/x/y.go:12.34,15.2 3 1
		name, rest, ok := strings.Cut(line, ":")
		fields := strings.Fields(rest)
		if !ok || len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		file, ok := strings.CutPrefix(name, "taskprov/")
		if !ok || !strings.HasPrefix(file, "internal/") {
			continue
		}
		ls, cs, _ := strings.Cut(strings.SplitN(fields[0], ",", 2)[0], ".")
		l, err1 := strconv.Atoi(ls)
		c, err2 := strconv.Atoi(cs)
		stmts, err3 := strconv.Atoi(fields[1])
		count, err4 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		k := at{file, l, c}
		b := merged[k]
		if b == nil {
			b = &reachBlock{line: l, col: c, stmts: stmts}
			merged[k] = b
			order = append(order, k)
		}
		b.hit = b.hit || count > 0
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string][]reachBlock{}
	for _, k := range order {
		out[k.file] = append(out[k.file], *merged[k])
	}
	return out, nil
}

// parseReachTree parses the tree at root: every function declared in a
// non-test file under internal/ (by repo-relative file), the import path of
// every non-test package under internal/ or at the root, and the name of
// every function declared in a test file anywhere.
func parseReachTree(root string) (map[string][]*reachFunc, []string, map[string]bool, error) {
	fset := token.NewFileSet()
	funcs := map[string][]*reachFunc{}
	tests := map[string]bool{}
	var pkgs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		isTest := strings.HasSuffix(rel, "_test.go")
		dir := filepath.ToSlash(filepath.Dir(rel))
		internal := dir == "internal" || strings.HasPrefix(dir, "internal/")
		if !isTest && !internal && dir != "." {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !isTest {
			pkg := "taskprov"
			if dir != "." {
				pkg += "/" + dir
			}
			if !slices.Contains(pkgs, pkg) {
				pkgs = append(pkgs, pkg)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok:
			case isTest:
				tests[fd.Name.Name] = true
			case internal && fd.Body != nil:
				funcs[rel] = append(funcs[rel], &reachFunc{
					key:   rel + " " + reachFuncName(fd),
					start: fset.Position(fd.Pos()),
					end:   fset.Position(fd.End()),
				})
			}
		}
		return nil
	})
	return funcs, pkgs, tests, err
}

// reachFuncName is a declaration's name as REACH.txt keys it: Name for a
// function, Type.Name for a method (pointer and type parameters dropped).
func reachFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

var (
	reachTestName  = regexp.MustCompile(`\b(Test|Fuzz)\w+`)
	reachChaosSpec = regexp.MustCompile(`chaos "([^"]+)"`)
)

// readReachList reads REACH.txt into its entries by key, with a problem for
// each malformed line, duplicate, or reason outside the closed set.
func readReachList(path string, tests map[string]bool) (map[string]string, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	entries := map[string]string{}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		where := fmt.Sprintf("REACH.txt:%d", i+1)
		fields := strings.Fields(line)
		if len(fields) < 3 {
			problems = append(problems, where+`: want "FILE FUNC KIND: DETAIL"`)
			continue
		}
		key := fields[0] + " " + fields[1]
		if _, dup := entries[key]; dup {
			problems = append(problems, fmt.Sprintf("%s: %s listed twice", where, key))
		}
		entries[key] = strings.Join(fields[2:], " ")
		if p := reachReasonProblem(entries[key], tests); p != "" {
			problems = append(problems, fmt.Sprintf("%s: %s: %s", where, key, p))
		}
	}
	return entries, problems, nil
}

// reachReasonProblem says what is wrong with one entry's reason, or "".
func reachReasonProblem(reason string, tests map[string]bool) string {
	kind, detail, ok := strings.Cut(reason, ":")
	if detail = strings.TrimSpace(detail); !ok || detail == "" {
		return `the reason must be "KIND: DETAIL"`
	}
	namesTest := func() bool {
		names := reachTestName.FindAllString(detail, -1)
		return len(names) > 0 && !slices.ContainsFunc(names, func(n string) bool { return !tests[n] })
	}
	switch kind {
	case "fault":
		specs := reachChaosSpec.FindAllStringSubmatch(detail, -1)
		for _, s := range specs {
			if _, err := chaos.Parse(s[1]); err != nil {
				return fmt.Sprintf("chaos spec %q does not parse: %v", s[1], err)
			}
		}
		if len(specs) == 0 && !namesTest() {
			return `a fault path must name the test (a declared Test*/Fuzz*) or the chaos "spec" that exercises it`
		}
	case "surface":
		if !namesTest() {
			return "an RPC or interface surface must name its test (a declared Test*/Fuzz*)"
		}
	case "seam":
	default:
		return fmt.Sprintf("kind %q is not one of fault, seam, surface", kind)
	}
	return ""
}
