package sfbuf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExtentBoundary keeps the run/batch/per-page decision, and the
// release that matches it, behind package kernel: no non-test file of a
// subsystem that maps multi-page windows may call the mapper's run or
// batch entry points, or read the kernel's batching switches.  They map,
// copy and release through kernel.Extent instead.  The per-page fallback
// lives there too: no non-test file under internal/ outside sfbuf and
// kernel may name sfbuf.ErrBatchTooLarge, and the consumers whose
// extents map page by page (pipe, memdisk, sendfile) map no page
// themselves.
func TestExtentBoundary(t *testing.T) {
	calls := map[string]bool{"AllocRun": true, "AllocBatch": true, "FreeRun": true, "FreeBatch": true}
	switches := map[string]bool{"Batch": true, "BatchSend": true}
	consumers := map[string]bool{"pipe": true, "memdisk": true, "sendfile": true, "netstack": true, "mbuf": true, "fs": true, "workloads": true}
	pageDirs := map[string]bool{"pipe": true, "memdisk": true, "sendfile": true}
	pageCalls := map[string]bool{"Alloc": true, "Free": true}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		dir = strings.TrimPrefix(dir, "internal/")
		if d.IsDir() {
			if d.Name() == "sfbuf" || d.Name() == "kernel" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		seen[dir] = true
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if consumers[dir] && calls[sel.Sel.Name] {
					t.Errorf("%s: calls %s; map through kernel.Extent", fset.Position(n.Pos()), sel.Sel.Name)
				}
				if x, ok := sel.X.(*ast.SelectorExpr); ok && pageDirs[dir] && x.Sel.Name == "Map" && pageCalls[sel.Sel.Name] {
					t.Errorf("%s: calls Map.%s; copy through the extent, which maps page by page itself", fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.SelectorExpr); ok && consumers[dir] && x.Sel.Name == "Plan" && switches[n.Sel.Name] {
					t.Errorf("%s: reads Plan.%s; the consumer handle decides", fset.Position(n.Pos()), n.Sel.Name)
				}
				if n.Sel.Name == "ErrBatchTooLarge" {
					t.Errorf("%s: names ErrBatchTooLarge; extents fall back per page inside package kernel", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range consumers {
		if !seen[dir] {
			t.Errorf("internal/%s: no sources", dir)
		}
	}
}
