package cicheck

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// root is the module root, two levels up from this package.
const root = "../.."

// TestCIRunPatternsNameTests requires every alternation term of every
// `go test -run` pattern in the CI workflow to name a Test or Fuzz
// function of its command's packages: a renamed test would otherwise
// leave its CI step passing on nothing.
func TestCIRunPatternsNameTests(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	stale, checked, err := StaleRunTerms(root, workflow)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no -run term found in the workflow")
	}
	for _, s := range stale {
		t.Error(s)
	}
}

// A term that names no test is reported with its line; terms that name
// one, subtest selectors, quoted and unquoted patterns and commands that
// run benchmarks or fuzz targets are not.
func TestStaleRunTermsReportsOnlyStaleTerms(t *testing.T) {
	workflow := []byte(`steps:
      - run: go test -run 'CIRunPatterns|NoSuchTest' ./internal/cicheck
      - run: |
          go test -count=2 -run "(CIRun|Other)Patterns|StaleRunTerms/sub" ./internal/cicheck
          go test -race -run CIRunPatterns . ./internal/cicheck > log.txt
          go test ./internal/cicheck -run NoTestsJustBench -bench BenchmarkNothing
          go test ./internal/cicheck -run '^$' -fuzz FuzzNothing
`)
	got, checked, err := StaleRunTerms(root, workflow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`line 2: -run term "NoSuchTest" names no test in ./internal/cicheck`}
	if !slices.Equal(got, want) || checked != 5 {
		t.Fatalf("StaleRunTerms = %q over %d terms, want %q over 5", got, checked, want)
	}
	if _, _, err := StaleRunTerms(root, []byte("run: go test -run X ./no/such/dir\n")); err == nil {
		t.Fatal("a missing package directory was not an error")
	}
}
