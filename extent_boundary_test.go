package sfbuf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExtentBoundary keeps the run/batch/per-page decision, and the
// release that matches it, behind package kernel: no non-test file of a
// subsystem that maps multi-page windows may call the mapper's run or
// batch entry points, or read the kernel's batching switches.  They map,
// copy and release through kernel.Extent instead.  The send consumers
// (sendfile, netstack) hold no per-page fallback of their own: they may
// not name sfbuf.ErrBatchTooLarge, and sendfile maps no page itself.
func TestExtentBoundary(t *testing.T) {
	calls := map[string]bool{"AllocRun": true, "AllocBatch": true, "FreeRun": true, "FreeBatch": true}
	switches := map[string]bool{"Batch": true, "BatchSend": true}
	sendDirs := map[string]bool{"sendfile": true, "netstack": true}
	pageCalls := map[string]bool{"Alloc": true, "Free": true}
	fset := token.NewFileSet()
	for _, dir := range []string{"pipe", "memdisk", "sendfile", "netstack", "mbuf", "fs", "workloads"} {
		files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no sources (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if calls[sel.Sel.Name] {
						t.Errorf("%s: calls %s; map through kernel.Extent", fset.Position(n.Pos()), sel.Sel.Name)
					}
					if x, ok := sel.X.(*ast.SelectorExpr); ok && dir == "sendfile" && x.Sel.Name == "Map" && pageCalls[sel.Sel.Name] {
						t.Errorf("%s: calls Map.%s; take pages through the send extent", fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.SelectorExpr); ok && x.Sel.Name == "Plan" && switches[n.Sel.Name] {
						t.Errorf("%s: reads Plan.%s; the consumer handle decides", fset.Position(n.Pos()), n.Sel.Name)
					}
					if sendDirs[dir] && n.Sel.Name == "ErrBatchTooLarge" {
						t.Errorf("%s: names ErrBatchTooLarge; send extents fall back per page inside package kernel", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}
