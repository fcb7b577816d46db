package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// typeList flattens a field list to one type string per value.
func typeList(fl *ast.FieldList) []string {
	var out []string
	if fl == nil {
		return out
	}
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1 // an unnamed parameter
		}
		for ; n > 0; n-- {
			out = append(out, types.ExprString(f.Type))
		}
	}
	return out
}

// takesBody reports whether fn has a supervised-body parameter, a
// func(*sim.Proc, int) error.
func takesBody(fn *ast.FuncDecl) bool {
	for _, f := range fn.Type.Params.List {
		ft, ok := f.Type.(*ast.FuncType)
		if ok && strings.Join(typeList(ft.Params), ", ") == "*sim.Proc, int" && strings.Join(typeList(ft.Results), ", ") == "error" {
			return true
		}
	}
	return false
}

// TestOneBuildPath guards the single machine build path and the single
// supervision loop. A serial machine is the one-shard partition, so no
// code may branch on whether a machine has a shard group or plan, no
// second constructor or "is it partitioned" query may come back, and
// the network layers keep one cube builder and one ring builder. Where
// the shard count must decide behaviour, the code tests Group.Shards()
// — see build. Supervised bodies are spawned and replayed by
// Supervisor.Run alone (the healer is its remap step, not a second
// loop), and the recovery policy is constants, not a settable struct.
func TestOneBuildPath(t *testing.T) {
	removed := map[string]string{
		"NewSharded":      "every machine is built by build over a PartitionPlan",
		"Partitioned":     "every machine is built by build over a PartitionPlan",
		"RecoveryParams":  "the recovery policy is package constants",
		"DefaultRecovery": "the recovery policy is package constants",
		"FaultSink":       "ArmFaults notifies its *Supervisor directly",
		"ArmFaultsSink":   "ArmFaults notifies its *Supervisor directly",
	}
	var bodyFuncs []string
	for path, f := range parsePackage(t, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if why, ok := removed[n.Name.Name]; ok {
					t.Errorf("%s: declares type %s; %s", path, n.Name.Name, why)
				}
			case *ast.FuncDecl:
				name := n.Name.Name
				if why, ok := removed[name]; ok {
					t.Errorf("%s: declares %s; %s", path, name, why)
				}
				if n.Recv != nil && name == "Run" && strings.TrimPrefix(types.ExprString(n.Recv.List[0].Type), "*") == "Healer" {
					t.Errorf("%s: declares Healer.Run; the healer is Supervisor.Run's remap step", path)
				}
				if takesBody(n) {
					bodyFuncs = append(bodyFuncs, name)
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
	if len(bodyFuncs) != 1 {
		t.Errorf("functions taking a supervised body: %v, want only Supervisor.Run", bodyFuncs)
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
