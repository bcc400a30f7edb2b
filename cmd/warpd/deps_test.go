package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestProductionImportClosure: the daemon and the compiler command link
// neither the workload generators, nor the reference interpreter, nor the
// paper reproductions.  They serve and compile the programs clients send,
// so nothing they run needs the generators of benchmark and test
// programs or the oracles those are checked against.  A package the rule
// names that no longer exists fails it, so a rename has to update it.
func TestProductionImportClosure(t *testing.T) {
	const module = "warp"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := func(path string) string {
		return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module)))
	}
	banned := []string{"warp/internal/workloads", "warp/internal/interp", "warp/internal/paper"}
	for _, path := range append([]string{"warp/cmd/warpd", "warp/cmd/w2c"}, banned...) {
		if _, err := build.ImportDir(dir(path), 0); err != nil {
			t.Errorf("the rule names %s: %v", path, err)
		}
	}
	for _, cmd := range []string{"warp/cmd/warpd", "warp/cmd/w2c"} {
		// via maps every module package in the closure to the package
		// that first imported it.
		via := map[string]string{cmd: ""}
		for queue := []string{cmd}; len(queue) > 0; queue = queue[1:] {
			pkg, err := build.ImportDir(dir(queue[0]), 0)
			if err != nil {
				t.Fatalf("%s: %v", queue[0], err)
			}
			for _, imp := range pkg.Imports {
				if _, seen := via[imp]; !seen && (imp == module || strings.HasPrefix(imp, module+"/")) {
					via[imp] = queue[0]
					queue = append(queue, imp)
				}
			}
		}
		for _, b := range banned {
			if from, ok := via[b]; ok {
				t.Errorf("%s links %s (imported by %s)", cmd, b, from)
			}
		}
	}
}
