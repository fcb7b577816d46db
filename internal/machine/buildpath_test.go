package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// parsePackage parses the non-test Go files of the package in dir.
func parsePackage(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = f
	}
	return files
}

// TestOneBuildPath guards the single machine build path: a serial
// machine is the one-shard partition, so no code may branch on whether
// a machine has a shard group or plan, no second constructor or
// "is it partitioned" query may come back, and the network layers keep
// one cube builder and one ring builder. Where the shard count must
// decide behaviour, the code tests Group.Shards() — see build.
func TestOneBuildPath(t *testing.T) {
	for path, f := range parsePackage(t, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if name := n.Name.Name; name == "NewSharded" || name == "Partitioned" {
					t.Errorf("%s: declares %s; every machine is built by build over a PartitionPlan", path, name)
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, pair := range [][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
					sel, ok := pair[0].(*ast.SelectorExpr)
					nilIdent, isIdent := pair[1].(*ast.Ident)
					if ok && isIdent && nilIdent.Name == "nil" && (sel.Sel.Name == "Group" || sel.Sel.Name == "Plan") {
						t.Errorf("%s: tests %s for nil; a serial machine is a one-shard group with a plan", path, sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
	for _, c := range []struct{ dir, prefix string }{
		{filepath.Join("..", "comm"), "BuildCube"},
		{filepath.Join("..", "module"), "ConnectRing"},
	} {
		var found []string
		for _, f := range parsePackage(t, c.dir) {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, c.prefix) {
					found = append(found, fn.Name.Name)
				}
			}
		}
		if len(found) != 1 {
			t.Errorf("%s: builders %v, want exactly one %s taking a shard group", c.dir, found, c.prefix)
		}
	}
}
