package switchprobe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelAndRanksUseNoGoroutines keeps the simulation kernel and the MPI
// rank runtime single-threaded: every simulated activity in internal/sim and
// internal/mpisim is a chain of kernel events on the goroutine that runs the
// kernel, so no non-test file there may start a goroutine, declare a channel
// type, send, receive or select.  (netsim's leaf-parallel workers are the
// simulator's one deliberate use of goroutines and live outside these two
// packages.)
func TestKernelAndRanksUseNoGoroutines(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/sim", "internal/mpisim"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				what := ""
				switch n := n.(type) {
				case *ast.GoStmt:
					what = "starts a goroutine"
				case *ast.ChanType:
					what = "declares a channel type"
				case *ast.SendStmt:
					what = "sends on a channel"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						what = "receives from a channel"
					}
				case *ast.SelectStmt:
					what = "selects on channels"
				}
				if what != "" {
					t.Errorf("%s: %s", fset.Position(n.Pos()), what)
				}
				return true
			})
		}
		if files == 0 {
			t.Fatalf("no Go files found under %s", dir)
		}
	}
}
