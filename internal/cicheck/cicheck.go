// Package cicheck checks the CI workflow against the code it runs: a
// `go test -run` pattern whose term names no test selects nothing, and
// the step it belongs to passes without testing what its name says.
package cicheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// StaleRunTerms returns every alternation term of a `go test -run`
// pattern in workflow that matches no Test or Fuzz function of the
// command's packages, one "line N: …" string each, and how many terms
// it checked. Package paths are relative to root, the module root. A
// command that passes -bench or -fuzz is skipped: its -run pattern is
// there to select no test.
func StaleRunTerms(root string, workflow []byte) (stale []string, checked int, err error) {
	for i, line := range strings.Split(string(workflow), "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 {
			continue
		}
		args := fields(line[at+len("go test "):])
		pattern, pkgs, ok := runPattern(args)
		if !ok {
			continue
		}
		names, err := testNames(root, pkgs)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: %w", i+1, err)
		}
		for _, term := range terms(pattern) {
			re, err := regexp.Compile(term)
			if err != nil {
				return nil, 0, fmt.Errorf("line %d: -run term %q: %w", i+1, term, err)
			}
			checked++
			if !slices.ContainsFunc(names, re.MatchString) {
				stale = append(stale, fmt.Sprintf("line %d: -run term %q names no test in %s", i+1, term, strings.Join(pkgs, " ")))
			}
		}
	}
	return stale, checked, nil
}

// fields splits a shell command line into words, honouring single and
// double quotes; it stops at a comment, a pipe, a redirection or a
// command separator.
func fields(s string) []string {
	var out []string
	var word strings.Builder
	inWord, quote := false, byte(0)
scan:
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				word.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				out = append(out, word.String())
				word.Reset()
				inWord = false
			}
		case strings.IndexByte("#|;&><", c) >= 0:
			break scan
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// runPattern returns a `go test` command's -run pattern and packages,
// and whether the pattern is there to select tests.
func runPattern(args []string) (pattern string, pkgs []string, ok bool) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-run" && i+1 < len(args):
			pattern, ok = args[i+1], true
			i++
		case a == "-bench" || a == "-fuzz":
			return "", nil, false
		case a == "." || strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pattern, pkgs, ok
}

// terms splits the top level of a -run pattern (the part before its
// first unbracketed '/', which selects subtests) at its unbracketed '|'.
func terms(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/', '|':
			if depth > 0 {
				continue
			}
			out = append(out, pattern[start:i])
			start = i + 1
			if pattern[i] == '/' {
				return out
			}
		}
	}
	return append(out, pattern[start:])
}

// testNames returns the Test and Fuzz functions of pkgs' test files.
func testNames(root string, pkgs []string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir := filepath.Join(root, pkg)
		if _, err := os.Stat(dir); err != nil {
			return nil, err
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isTest(fn.Name.Name) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names, nil
}

// isTest reports whether name is a Test or Fuzz function's name, as go
// test recognizes one.
func isTest(name string) bool {
	for _, prefix := range []string{"Test", "Fuzz"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			return rest == "" || !('a' <= rest[0] && rest[0] <= 'z')
		}
	}
	return false
}
