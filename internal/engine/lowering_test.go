package engine

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/types"
)

// firstFilterPred returns the predicate of the topmost Filter under a chain
// of Projects, Sorts and Filters, or nil.
func firstFilterPred(n algebra.Node) algebra.Expr {
	for {
		switch x := n.(type) {
		case *algebra.Project:
			n = x.Input
		case *algebra.Sort:
			n = x.Input
		case *algebra.Filter:
			return x.Pred
		default:
			return nil
		}
	}
}

// TestBetweenNull pins [NOT] BETWEEN's three-valued truth table now that the
// planner lowers it to comparisons: e BETWEEN lo AND hi is e >= lo AND
// e <= hi, e NOT BETWEEN lo AND hi is e < lo OR e > hi. Each case runs in a
// one-row table (typed columns, so the vector kernels run) and all cases
// together in one mixed-kind table (boxed columns), in the select list and
// as a WHERE filter.
func TestBetweenNull(t *testing.T) {
	n, nan := types.Null(), fv(math.NaN())
	yes, no := types.NewBool(true), types.NewBool(false)
	cases := []struct {
		x, lo, hi     types.Value
		between, notB types.Value
	}{
		{n, iv(1), iv(2), n, n},
		{iv(1), n, iv(2), n, n},
		{iv(5), n, iv(2), no, yes},
		{iv(0), iv(1), n, no, yes},
		{iv(3), iv(1), n, n, n},
		{n, n, n, n, n},
		{nan, fv(0), fv(1), yes, no},
		{fv(1), fv(0), nan, yes, no},
		{nan, nan, nan, yes, no},
		{fv(-1), nan, fv(0), yes, no},
		{nan, fv(0), n, n, n},
		{nan, n, fv(0), n, n},
		{iv(2), fv(1.5), fv(2), yes, no},
		{fv(2.5), iv(1), iv(2), no, yes},
		{iv(3), fv(3), iv(3), yes, no},
		{fv(0.5), iv(1), fv(3.5), no, yes},
		{iv(1), iv(1), iv(1), yes, no},
		{iv(2), iv(3), iv(1), no, yes},
	}
	same := func(a, b types.Value) bool {
		return a.Kind() == b.Kind() && (a.IsNull() || a.Bool() == b.Bool())
	}
	check := func(idx []int) {
		t.Helper()
		tb := NewTable(types.NewSchema("t", "id", "x", "lo", "hi"))
		for _, i := range idx {
			c := cases[i]
			tb.AppendVals(iv(int64(i)), c.x, c.lo, c.hi)
		}
		cat := NewCatalog()
		cat.Put(tb)
		res := run(t, cat, "SELECT id, x BETWEEN lo AND hi, x NOT BETWEEN lo AND hi FROM t ORDER BY id")
		if res.NumRows() != len(idx) {
			t.Fatalf("cases %v: %d rows", idx, res.NumRows())
		}
		wantIn, wantOut := map[int64]bool{}, map[int64]bool{}
		for _, row := range res.Rows {
			c := cases[row[0].Int()]
			if !same(row[1], c.between) || !same(row[2], c.notB) {
				t.Errorf("%v BETWEEN %v AND %v = %v / NOT = %v, want %v / %v",
					c.x, c.lo, c.hi, row[1], row[2], c.between, c.notB)
			}
			wantIn[row[0].Int()] = same(c.between, yes)
			wantOut[row[0].Int()] = same(c.notB, yes)
		}
		for q, want := range map[string]map[int64]bool{
			"SELECT id FROM t WHERE x BETWEEN lo AND hi":     wantIn,
			"SELECT id FROM t WHERE x NOT BETWEEN lo AND hi": wantOut,
		} {
			got := map[int64]bool{}
			for _, row := range run(t, cat, q).Rows {
				got[row[0].Int()] = true
			}
			for id, w := range want {
				if got[id] != w {
					t.Errorf("%s: case %d selected=%v, want %v", q, id, got[id], w)
				}
			}
		}
	}
	all := make([]int, len(cases))
	for i := range cases {
		check([]int{i})
		all[i] = i
	}
	check(all)
}

// TestNegativeLiteralFolds pins the planner's folding of a negated constant:
// -87.72 must reach the kernels as one constant, so the comparison keeps its
// vector selection kernel, and the folded value must be exactly what
// evaluating the negation gives.
func TestNegativeLiteralFolds(t *testing.T) {
	cat := NewCatalog()
	tb := NewTable(types.NewSchema("crimes", "longitude"))
	tb.AppendVals(fv(-87.8))
	tb.AppendVals(fv(-87.7))
	tb.AppendVals(fv(-87.6))
	cat.Put(tb)

	plan, err := NewPlanner(cat).PlanSQL("SELECT longitude FROM crimes WHERE longitude >= -87.72")
	if err != nil {
		t.Fatal(err)
	}
	pred := firstFilterPred(plan)
	if pred == nil {
		t.Fatalf("no filter in %s", plan)
	}
	if !algebra.Compile(pred).CanSelectVec() {
		t.Errorf("filter %s has no vector selection kernel", pred)
	}
	if res := run(t, cat, "SELECT longitude FROM crimes WHERE longitude >= -87.72"); res.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", res.NumRows())
	}

	plan, err = NewPlanner(cat).PlanSQL("SELECT -5, -0.0, -9223372036854775808, - -3, -'a' FROM crimes")
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := plan.(*algebra.Project)
	if !ok {
		t.Fatalf("plan %s is not a projection", plan)
	}
	want := []types.Value{iv(-5), fv(math.Copysign(0, -1)), fv(-9223372036854775808), iv(3), types.Null()}
	for i, e := range proj.Exprs {
		c, isConst := e.(algebra.Const)
		if !isConst {
			t.Errorf("expr %d = %s, want a folded constant", i, e)
			continue
		}
		if c.V.Kind() != want[i].Kind() || string(c.V.AppendKey(nil)) != string(want[i].AppendKey(nil)) {
			t.Errorf("expr %d = %v (kind %v), want %v (kind %v)", i, c.V, c.V.Kind(), want[i], want[i].Kind())
		}
	}

	// HAVING compiles through the post-aggregate path, which folds too.
	plan, err = NewPlanner(cat).PlanSQL("SELECT longitude, count(*) FROM crimes GROUP BY longitude HAVING count(*) > -1")
	if err != nil {
		t.Fatal(err)
	}
	pred = firstFilterPred(plan)
	if pred == nil {
		t.Fatalf("no HAVING filter in %s", plan)
	}
	if !algebra.Compile(pred).CanSelectVec() {
		t.Errorf("HAVING filter %s has no vector selection kernel", pred)
	}
}
