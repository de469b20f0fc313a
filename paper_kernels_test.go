package repro_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/sql"
	"repro/internal/uadb"
)

// filterPreds collects the predicate of every Filter in a plan.
func filterPreds(n algebra.Node) []algebra.Expr {
	switch x := n.(type) {
	case *algebra.Filter:
		return append(filterPreds(x.Input), x.Pred)
	case *algebra.Project:
		return filterPreds(x.Input)
	case *algebra.Join:
		return append(filterPreds(x.Left), filterPreds(x.Right)...)
	case *algebra.UnionAll:
		return append(filterPreds(x.Left), filterPreds(x.Right)...)
	case *algebra.Aggregate:
		return filterPreds(x.Input)
	case *algebra.Sort:
		return filterPreds(x.Input)
	case *algebra.Limit:
		return filterPreds(x.Input)
	case *algebra.Distinct:
		return filterPreds(x.Input)
	default:
		return nil
	}
}

// uaFrontend encodes x-relations as a tuple-level UA-DB behind a frontend.
func uaFrontend(tables map[string]*models.XRelation) *rewrite.Frontend {
	db := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range tables {
		db.Put(uadb.FromXDB(x))
	}
	return rewrite.NewFrontend(rewrite.EncodeUADatabase(db))
}

// TestPaperQueryFilterKernels requires every Filter of the paper's queries,
// after the UA or AU rewrite and physical.Optimize, to have a vector
// selection kernel. A filter without one runs on boxed rows and declines
// the fused pipeline, which no end-to-end answer check would notice.
func TestPaperQueryFilterKernels(t *testing.T) {
	check := func(name string, plan algebra.Node, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		preds := filterPreds(physical.Optimize(plan))
		if len(preds) == 0 {
			t.Fatalf("%s: no filter in the optimized plan", name)
		}
		for _, p := range preds {
			if !algebra.Compile(p).CanSelectVec() {
				t.Errorf("%s: filter %s has no vector selection kernel", name, p)
			}
		}
	}

	w := pdbench.Generate(pdbench.Config{SF: 0.01, Uncertainty: 0.05, Seed: 1})
	pd := uaFrontend(w.Tables)
	for _, q := range pdbench.Queries() {
		plan, err := pd.PlanSQL(q.SQL)
		check("pdbench "+q.Name, plan, err)
	}

	rt := datagen.GenerateRealTables(50, 0.05, 1)
	real := uaFrontend(rt.Tables())
	for _, q := range datagen.RealQueries()[:4] {
		plan, err := real.PlanSQL(q.SQL)
		check("real "+q.Name, plan, err)
	}

	// The AU crime window of the real-data benchmark workload.
	crime, err := rewrite.EncodeAttrX(rt.Crime)
	if err != nil {
		t.Fatal(err)
	}
	real.PutAttrTable("crime", crime)
	stmt, err := sql.Parse("SELECT id, longitude, latitude FROM crime" +
		" WHERE longitude BETWEEN -87.720 AND -87.665 AND latitude BETWEEN 41.875 AND 41.886")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := real.PlanAttr(stmt)
	check("AU crime window", plan, err)
}
