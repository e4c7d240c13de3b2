package prefetch

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// T0 must be callable on any element address, under either build, and
// leave what it points at alone.
func TestT0IsOnlyAHint(t *testing.T) {
	words := []int32{1, 2, 3}
	bytes := []uint8{4}
	for i := range words {
		T0(&words[i])
	}
	T0(&bytes[0])
	if words[0] != 1 || words[1] != 2 || words[2] != 3 || bytes[0] != 4 {
		t.Fatalf("prefetch changed its operand: %v %v", words, bytes)
	}
}

// -tags noasm must compile every assembly file of the module out — that
// is what lets the "Test (noasm)" CI step stand in for a machine without
// the instructions — so each one has to say so in its build constraint.
func TestEveryAssemblyFileHonoursNoasm(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".s" {
			return nil
		}
		found++
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		if !sc.Scan() || !strings.HasPrefix(sc.Text(), "//go:build ") || !strings.Contains(sc.Text(), "!noasm") {
			t.Errorf("%s: first line %q is not a build constraint with !noasm", path, sc.Text())
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if found < 2 {
		t.Fatalf("found %d assembly files, want this package's and internal/vec's at least", found)
	}
}
