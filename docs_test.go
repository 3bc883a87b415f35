package largemail_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// commandFlags returns every command under cmd/ with the flags its main.go
// defines: the name argument of each flag-defining call on the flag package
// or on a FlagSet the file makes with flag.NewFlagSet (a subcommand's
// included).
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	out := make(map[string]map[string]bool)
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sets := map[string]bool{"flag": true}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if isCall(as.Rhs[0], "flag", "NewFlagSet") {
					if id, ok := as.Lhs[0].(*ast.Ident); ok {
						sets[id.Name] = true
					}
				}
			}
			return true
		})
		flags := make(map[string]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || !sets[recv.Name] || len(call.Args) < 3 {
				return true
			}
			arg := 0 // String(name, …), Bool(name, …), Func(name, …)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1 // StringVar(&p, name, …), Var(value, name, …)
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				flags[name] = true
			}
			return true
		})
		out[filepath.Base(filepath.Dir(file))] = flags
	}
	return out
}

func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestDocsNameEveryFlag: every flag a command defines is named as -flag in
// README.md or DESIGN.md.
func TestDocsNameEveryFlag(t *testing.T) {
	docs := readDoc(t, "README.md") + readDoc(t, "DESIGN.md")
	for cmd, flags := range commandFlags(t) {
		for name := range flags {
			if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).MatchString(docs) {
				t.Errorf("cmd/%s defines -%s, which neither README.md nor DESIGN.md names", cmd, name)
			}
		}
	}
}

// TestDocsNameEveryMakeTarget: every .PHONY target of the Makefile is named
// as `make <target>` in README.md or DESIGN.md.
func TestDocsNameEveryMakeTarget(t *testing.T) {
	docs := readDoc(t, "README.md") + readDoc(t, "DESIGN.md")
	var targets []string
	for _, line := range strings.Split(readDoc(t, "Makefile"), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			targets = append(targets, strings.Fields(rest)...)
		}
	}
	if len(targets) == 0 {
		t.Fatal("no .PHONY targets in the Makefile")
	}
	for _, target := range targets {
		if !regexp.MustCompile(`make ` + regexp.QuoteMeta(target) + `([^\w-]|$)`).MatchString(docs) {
			t.Errorf("make %s: neither README.md nor DESIGN.md names it", target)
		}
	}
}

// TestDocsNameEveryRatchet: every ratchet of `make check` — a recipe line
// that fails with echo "…" >&2 — has its message quoted verbatim in README.md
// or DESIGN.md.
func TestDocsNameEveryRatchet(t *testing.T) {
	docs := readDoc(t, "README.md") + readDoc(t, "DESIGN.md")
	echo := regexp.MustCompile(`echo "([^"]+)" >&2`)
	var msgs []string
	inCheck := false
	for _, line := range strings.Split(readDoc(t, "Makefile"), "\n") {
		switch {
		case strings.HasPrefix(line, "check:"):
			inCheck = true
		case !strings.HasPrefix(line, "\t"):
			inCheck = false
		case inCheck:
			for _, m := range echo.FindAllStringSubmatch(line, -1) {
				msgs = append(msgs, m[1])
			}
		}
	}
	if len(msgs) == 0 {
		t.Fatal("no ratchet in the check recipe")
	}
	for _, msg := range msgs {
		if !strings.Contains(docs, msg) {
			t.Errorf("make check fails with %q, which neither README.md nor DESIGN.md quotes", msg)
		}
	}
}

// TestMakefileRunsOnlyTestsThatExist: go test passes when a -run pattern
// matches nothing, so a test renamed or deleted under a Makefile recipe would
// leave it checking less without a word. Every alternative of every -run '…'
// in a recipe line (continuations joined; '^$', which runs nothing on purpose,
// aside) must match a Test, Fuzz, Benchmark or Example function of one of the
// packages that line names.
func TestMakefileRunsOnlyTestsThatExist(t *testing.T) {
	runArg := regexp.MustCompile(`-run '([^']*)'`)
	group := regexp.MustCompile(`^\^\((.*)\)\$$`)
	recipes := strings.ReplaceAll(readDoc(t, "Makefile"), "\\\n", " ")
	checked := 0
	for _, line := range strings.Split(recipes, "\n") {
		m := runArg.FindStringSubmatch(line)
		if !strings.HasPrefix(line, "\t") || m == nil {
			continue
		}
		pattern := strings.ReplaceAll(m[1], "$$", "$")
		if pattern == "^$" {
			continue
		}
		var pkgs, funcs []string
		for _, tok := range strings.Fields(line) {
			if strings.HasPrefix(tok, "./") {
				pkgs = append(pkgs, tok)
				funcs = append(funcs, testFuncs(t, tok)...)
			}
		}
		if len(funcs) == 0 {
			t.Errorf("Makefile: %q names no package with tests", strings.TrimSpace(line))
			continue
		}
		anchor := "%s"
		if g := group.FindStringSubmatch(pattern); g != nil {
			pattern, anchor = g[1], "^(?:%s)$"
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(fmt.Sprintf(anchor, alt))
			if err != nil {
				t.Fatalf("Makefile: -run alternative %q: %v", alt, err)
			}
			checked++
			if !slices.ContainsFunc(funcs, re.MatchString) {
				t.Errorf("Makefile: -run alternative %q matches no test in %s", alt, strings.Join(pkgs, " "))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run pattern in the Makefile")
	}
}

// testFuncs lists the Test, Fuzz, Benchmark and Example functions of the
// package in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out = append(out, fn.Name.Name)
				}
			}
		}
	}
	return out
}

// TestDocEntriesWithinBudget: each PR adds one CHANGES.md entry and one
// EXPERIMENTS.md section, and these are their budgets — an entry from PR 26
// on is at most 1 536 bytes, a "## E<n>" section from E34 on (its heading up
// to the next "## ") at most 60 lines.
func TestDocEntriesWithinBudget(t *testing.T) {
	entry := regexp.MustCompile(`^- PRs? (\d+)`)
	entries := 0
	for _, line := range strings.Split(readDoc(t, "CHANGES.md"), "\n") {
		if m := entry.FindStringSubmatch(line); m != nil {
			if n, _ := strconv.Atoi(m[1]); n >= 26 {
				entries++
				if len(line) > 1536 {
					t.Errorf("CHANGES.md: the PR %d entry is %d bytes, over 1 536", n, len(line))
				}
			}
		}
	}
	heading := regexp.MustCompile(`^## E(\d+)\b`)
	lines := strings.Split(readDoc(t, "EXPERIMENTS.md"), "\n")
	sections := 0
	for i, line := range lines {
		if m := heading.FindStringSubmatch(line); m != nil {
			end := i + 1
			for end < len(lines) && !strings.HasPrefix(lines[end], "## ") {
				end++
			}
			if n, _ := strconv.Atoi(m[1]); n >= 34 {
				sections++
				if end-i > 60 {
					t.Errorf("EXPERIMENTS.md: E%d is %d lines, over 60", n, end-i)
				}
			}
		}
	}
	if entries == 0 || sections == 0 {
		t.Fatalf("%d CHANGES.md entries from PR 26 on, %d EXPERIMENTS.md sections from E34 on: the formats changed", entries, sections)
	}
}

// docsTotalBudget bounds DESIGN.md and EXPERIMENTS.md together, in bytes: the
// size the change that last set it left. Like SIZE_CEILING it only goes
// down; a change that adds to the docs takes as much out elsewhere.
const docsTotalBudget = 327717

// TestDocsWithinTotalBudget: DESIGN.md and EXPERIMENTS.md together are at
// most docsTotalBudget bytes.
func TestDocsWithinTotalBudget(t *testing.T) {
	if n := len(readDoc(t, "DESIGN.md")) + len(readDoc(t, "EXPERIMENTS.md")); n > docsTotalBudget {
		t.Errorf("DESIGN.md + EXPERIMENTS.md are %d bytes, over %d", n, docsTotalBudget)
	}
}

// goRun matches a documented `go run ./cmd/<x> …` and what follows it on
// the line; bareRun a built command run by its bare name, or a path ending in
// it, at the start of a line, with a flag after it.
var (
	goRun   = regexp.MustCompile(`go run \./cmd/([\w-]+)(.*)`)
	bareRun = regexp.MustCompile(`^\s*(?:[\w./-]*/)?([\w-]+)(\s+-.*)$`)
)

// TestDocsRunOnlyWhatExists: every `go run ./cmd/<x> …` line of README.md,
// DESIGN.md, EXPERIMENTS.md and the repository's skill notes names an
// existing command and only flags it defines, and so does every line there
// that starts with a command's bare name. A line ending in a backslash goes
// on on the next; a comment, pipe, redirect, `;`, `&` or closing backtick
// ends the command.
func TestDocsRunOnlyWhatExists(t *testing.T) {
	cmds := commandFlags(t)
	flagTok := regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	skills, err := filepath.Glob(filepath.Join(".*", "skills", "*", "SKILL.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docs, skills...) {
		lines := strings.Split(readDoc(t, doc), "\n")
		for i := 0; i < len(lines); i++ {
			line := lines[i]
			for j := i; strings.HasSuffix(line, "\\") && j+1 < len(lines); j++ {
				line = strings.TrimSuffix(line, "\\") + " " + lines[j+1]
			}
			runs := goRun.FindAllStringSubmatch(line, -1)
			if m := bareRun.FindStringSubmatch(line); m != nil && cmds[m[1]] != nil {
				runs = append(runs, m)
			}
			for _, m := range runs {
				cmd, rest := m[1], m[2]
				flags, ok := cmds[cmd]
				if !ok {
					t.Errorf("%s:%d runs ./cmd/%s, which does not exist", doc, i+1, cmd)
					continue
				}
				if end := strings.IndexAny(rest, "#|;>&`"); end >= 0 {
					rest = rest[:end]
				}
				var unknown []string
				for _, tok := range strings.Fields(rest) {
					if f := flagTok.FindStringSubmatch(tok); f != nil && !flags[f[1]] {
						unknown = append(unknown, "-"+f[1])
					}
				}
				if len(unknown) > 0 {
					sort.Strings(unknown)
					t.Errorf("%s:%d runs ./cmd/%s with %s, which it does not define", doc, i+1, cmd, strings.Join(unknown, ", "))
				}
			}
		}
	}
}
