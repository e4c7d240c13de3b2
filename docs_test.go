package lccs

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

// TestConformanceDocInStep keeps docs/CONFORMANCE.md in step with the code
// and with CI: every Test* or Fuzz* name the document cites is declared in
// some _test.go of the module, and every fuzz target CI's workflow runs
// has a row in the document. A renamed test or a new CI fuzz target fails
// here until the document follows.
func TestConformanceDocInStep(t *testing.T) {
	doc, err := os.ReadFile("docs/CONFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := testFuncs(t)
	cited := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`).FindAllString(string(doc), -1) {
		cited[name] = true
		if !declared[name] {
			t.Errorf("docs/CONFORMANCE.md cites %s, which no _test.go of the module declares", name)
		}
	}
	fuzzed := regexp.MustCompile(`-fuzz\s+(\w+)`).FindAllStringSubmatch(string(ci), -1)
	if len(fuzzed) == 0 {
		t.Fatal("ci.yml runs no -fuzz target: the pattern no longer matches the workflow")
	}
	for _, m := range fuzzed {
		if !cited[m[1]] {
			t.Errorf("CI fuzzes %s, which docs/CONFORMANCE.md does not name", m[1])
		}
	}
}

// TestReadmeExamplesDeclared: every Example function README.md cites is
// declared in some _test.go of the module, so a pointer to a walk-through
// cannot outlive it.
func TestReadmeExamplesDeclared(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := testFuncs(t)
	for _, name := range regexp.MustCompile(`\bExample[A-Z_]\w*`).FindAllString(string(readme), -1) {
		if !declared[name] {
			t.Errorf("README.md cites %s, which no _test.go of the module declares", name)
		}
	}
}

// testFuncs parses every _test.go of the module — nested modules,
// testdata and hidden directories skipped — and returns the names of its
// top-level Test*, Fuzz* and Example* functions.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz") ||
					strings.HasPrefix(fn.Name.Name, "Example")) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
