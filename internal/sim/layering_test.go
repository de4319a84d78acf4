package sim

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoDesignImports pins the run loop's layering: the loop reaches
// every design through memtypes.MemorySystem alone, so no non-test file
// of the package may import a concrete design package.
func TestNoDesignImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range af.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "hybridmem/internal/core" || strings.HasPrefix(path, "hybridmem/internal/baselines/") {
				t.Errorf("%s imports %s: the run loop must reach designs only through memtypes.MemorySystem", f, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files found")
	}
}
