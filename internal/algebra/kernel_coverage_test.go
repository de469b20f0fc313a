package algebra

import (
	"go/ast"
	"go/parser"
	"go/token"
	gotypes "go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// kernelCoverage lists, per expression node type, a sample and whether it
// compiles to a columnar kernel. An entry with an empty rowOnly must compile
// to a vector selection or evaluation kernel; an entry with a reason must
// not, so the list goes stale loudly when a kernel is added. A type may have
// several entries when its shapes differ (CaseExpr).
var kernelCoverage = []struct {
	sample  Expr
	rowOnly string
}{
	{sample: Col{Idx: 0, Name: "a"}},
	{sample: Const{V: types.NewInt(1)}},
	{sample: Bin{Op: OpLt, L: Col{Idx: 0, Name: "a"}, R: Const{V: types.NewInt(1)}}},
	{sample: ScalarFunc{Name: "least", Args: []Expr{Col{Idx: 0, Name: "a"}, Const{V: types.NewInt(1)}}}},
	{sample: CaseExpr{
		Whens: []CaseWhen{{Cond: Bin{Op: OpLt, L: Col{Idx: 0, Name: "a"}, R: Const{V: types.NewInt(1)}}, Result: Col{Idx: 0, Name: "a"}}},
		Else:  Const{V: types.NewInt(0)},
	}},
	{
		sample: CaseExpr{
			Operand: Col{Idx: 0, Name: "a"},
			Whens:   []CaseWhen{{Cond: Const{V: types.NewInt(1)}, Result: Col{Idx: 0, Name: "a"}}},
		},
		rowOnly: "operand and multi-branch CASE: only the searched single-branch form the AU rewrite emits has a kernel",
	},
	{
		sample:  Not{E: Bin{Op: OpLt, L: Col{Idx: 0, Name: "a"}, R: Const{V: types.NewInt(1)}}},
		rowOnly: "the complement of a TRUE selection also holds the NULL rows; the planner lowers NOT BETWEEN to comparisons instead",
	},
	{
		sample:  Neg{E: Col{Idx: 0, Name: "a"}},
		rowOnly: "negation of a non-constant; the planner folds negated literals, the form the paper's queries use, into constants",
	},
	{
		sample:  IsNullE{E: Col{Idx: 0, Name: "a"}},
		rowOnly: "IS [NOT] NULL has no kernel; no filter of the paper's queries tests for NULL",
	},
	{
		sample:  LikeE{E: Col{Idx: 0, Name: "a"}, Pattern: Const{V: types.NewString("x%")}},
		rowOnly: "pattern matching over strings has no kernel",
	},
	{
		sample:  InE{E: Col{Idx: 0, Name: "a"}, List: []Expr{Const{V: types.NewInt(1)}}},
		rowOnly: "list membership has no kernel",
	},
}

// exprNodeTypes parses the package's non-test sources and returns the
// types with both an Eval([]types.Value) types.Value and a String() string
// method — every type implementing Expr.
func exprNodeTypes(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	evals, strs := map[string]bool{}, map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			recv := gotypes.ExprString(fn.Recv.List[0].Type)
			recv = strings.TrimPrefix(recv, "*")
			switch sig := signature(fn.Type); {
			case fn.Name.Name == "Eval" && sig == "([]types.Value) types.Value":
				evals[recv] = true
			case fn.Name.Name == "String" && sig == "() string":
				strs[recv] = true
			}
		}
	}
	nodes := map[string]bool{}
	for name := range evals {
		if strs[name] {
			nodes[name] = true
		}
	}
	return nodes
}

// signature renders a function type's parameter and result types, without
// parameter names.
func signature(ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, f := range fl.List {
			n := max(len(f.Names), 1)
			for range n {
				out = append(out, gotypes.ExprString(f.Type))
			}
		}
		return out
	}
	return "(" + strings.Join(list(ft.Params), ", ") + ") " + strings.Join(list(ft.Results), ", ")
}

// TestExprKernelCoverage requires every expression node type to be listed in
// kernelCoverage, so a new node cannot silently lack a vector path: it gets
// a kernel or a stated reason for running boxed.
func TestExprKernelCoverage(t *testing.T) {
	nodes := exprNodeTypes(t)
	if len(nodes) == 0 {
		t.Fatal("found no expression node types")
	}
	listed := map[string]bool{}
	for _, c := range kernelCoverage {
		name := reflect.TypeOf(c.sample).Name()
		listed[name] = true
		if !nodes[name] {
			t.Errorf("kernelCoverage lists %s, which is not an expression node type", name)
		}
		prog := Compile(c.sample)
		hasKernel := prog.CanEvalVec() || prog.CanSelectVec()
		switch {
		case c.rowOnly == "" && !hasKernel:
			t.Errorf("%s: sample %s has no vector kernel", name, c.sample)
		case c.rowOnly != "" && hasKernel:
			t.Errorf("%s: sample %s is listed row-only (%s) but has a vector kernel", name, c.sample, c.rowOnly)
		}
	}
	for name := range nodes {
		if !listed[name] {
			t.Errorf("expression node %s has no kernelCoverage entry: give a sample with a vector kernel or a row-only reason", name)
		}
	}
}
