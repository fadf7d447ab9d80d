package analysis_test

import (
	"go/types"
	"path/filepath"
	"sync"
	"testing"
)

// TestLoadersShareStdlib: Loaders on different goroutines type-check
// the standard library once between them and see the same packages.
func TestLoadersShareStdlib(t *testing.T) {
	var wg sync.WaitGroup
	imported := make([]*types.Package, 2)
	for i := range imported {
		loader := newLoader(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", "norand"), "asmp/internal/sim/norandx")
			if err != nil {
				t.Error(err)
				return
			}
			for _, p := range pkg.Pkg.Imports() {
				if p.Path() == "math/rand" {
					imported[i] = p
				}
			}
		}()
	}
	wg.Wait()
	if imported[0] == nil || imported[0] != imported[1] {
		t.Fatalf("two Loaders imported math/rand as %p and %p, want one shared package", imported[0], imported[1])
	}
}
