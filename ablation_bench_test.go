package repro_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//  1. hash join vs nested-loop join in the engine (the equi-key extraction
//     in the planner and kdb evaluator),
//  2. the PTIME CNF-tautology check vs the exact active-domain solver (the
//     c-sound labeling shortcut of Section 4 vs full certainty),
//  3. tuple-level vs attribute-level labels (the Section 12 extension), and
//  4. K-relation (map-based) vs engine (slice-based) evaluation of the same
//     query — why the middleware targets a conventional executor.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cond"
	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/pdbench"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

func ablationTables(n int, rng *rand.Rand) (*engine.Table, *engine.Table) {
	l := engine.NewTable(types.NewSchema("l", "k", "x"))
	r := engine.NewTable(types.NewSchema("r", "k", "y"))
	for i := 0; i < n; i++ {
		l.AppendVals(types.NewInt(rng.Int63n(int64(n/4+1))), types.NewInt(int64(i)))
		r.AppendVals(types.NewInt(rng.Int63n(int64(n/4+1))), types.NewInt(int64(i)))
	}
	return l, r
}

func BenchmarkAblationJoinHash(b *testing.B) {
	l, r := ablationTables(2000, rand.New(rand.NewSource(1)))
	cat := engine.NewCatalog()
	cat.Put(l)
	cat.Put(r)
	plan := &algebra.Join{
		Left:  &algebra.Scan{Table: "l", TblSchema: l.Schema},
		Right: &algebra.Scan{Table: "r", TblSchema: r.Schema},
		EquiL: []int{0}, EquiR: []int{0},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execPlanTbl(plan, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinNestedLoop(b *testing.B) {
	l, r := ablationTables(2000, rand.New(rand.NewSource(1)))
	cat := engine.NewCatalog()
	cat.Put(l)
	cat.Put(r)
	plan := &algebra.Join{
		Left:  &algebra.Scan{Table: "l", TblSchema: l.Schema},
		Right: &algebra.Scan{Table: "r", TblSchema: r.Schema},
		Residual: algebra.Bin{Op: algebra.OpEq,
			L: algebra.Col{Idx: 0, Name: "k"}, R: algebra.Col{Idx: 2, Name: "k"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execPlanTbl(plan, cat); err != nil {
			b.Fatal(err)
		}
	}
}

func ablationConds(n int, rng *rand.Rand) []cond.Expr {
	out := make([]cond.Expr, n)
	for i := range out {
		x := cond.V("X")
		c1, c2 := cond.CI(rng.Int63n(5)), cond.CI(rng.Int63n(5))
		out[i] = cond.Or{
			cond.Cmp(x, cond.OpLe, c1),
			cond.Cmp(x, cond.OpGt, c2),
			cond.Cmp(cond.V("Y"), cond.OpEq, cond.CI(rng.Int63n(5))),
		}
	}
	return out
}

func BenchmarkAblationCNFCheck(b *testing.B) {
	conds := ablationConds(200, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range conds {
			cond.CNFTautology(e)
		}
	}
}

func BenchmarkAblationExactSolver(b *testing.B) {
	conds := ablationConds(200, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range conds {
			cond.Tautology(e)
		}
	}
}

func ablationXDB(n int, rng *rand.Rand) *models.XRelation {
	x := models.NewXRelation(types.NewSchema("R", "a", "b", "c"))
	for i := 0; i < n; i++ {
		base := types.Tuple{
			types.NewInt(rng.Int63n(20)), types.NewInt(rng.Int63n(20)), types.NewInt(rng.Int63n(20)),
		}
		if rng.Intn(4) == 0 {
			alt := base.Clone()
			alt[1] = types.NewInt(rng.Int63n(20) + 100)
			x.AddChoice(base, alt)
		} else {
			x.AddCertain(base)
		}
	}
	return x
}

func BenchmarkAblationTupleLevelLabels(b *testing.B) {
	x := ablationXDB(2000, rand.New(rand.NewSource(3)))
	db := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	db.Put(uadb.FromXDB(x))
	q := kdb.ProjectQ{Input: kdb.Table{Name: "R"}, Attrs: []string{"a", "c"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uadb.Eval(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAttrLevelLabels(b *testing.B) {
	x := ablationXDB(2000, rand.New(rand.NewSource(3)))
	at, err := rewrite.EncodeAttrX(x)
	if err != nil {
		b.Fatal(err)
	}
	front := rewrite.NewFrontend(engine.NewCatalog())
	front.PutAttrTable("R", at)
	opts := rewrite.QueryOpts{AttrBounds: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := front.Query(context.Background(), "SELECT a, c FROM R", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKRelationEval(b *testing.B) {
	w := pdbench.Generate(pdbench.Config{SF: 0.02, Uncertainty: 0.05, Seed: 4})
	db := kdb.NewDatabase[int64](semiring.Nat)
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	det := rewrite.DetCatalog(uaDB)
	for _, name := range det.Names() {
		db.Put(rewrite.RelationFromTable(det.Get(name)))
	}
	q := pdbench.Queries()[0].RA
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kdb.Eval(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngineEval(b *testing.B) {
	w := pdbench.Generate(pdbench.Config{SF: 0.02, Uncertainty: 0.05, Seed: 4})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	det := rewrite.DetCatalog(uaDB)
	q := pdbench.Queries()[0].SQL
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execSQLTbl(det, q); err != nil {
			b.Fatal(err)
		}
	}
}
