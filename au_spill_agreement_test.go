package repro_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/spill"
	"repro/internal/sql"
	"repro/internal/types"
)

// TestSpillAgreementAUAggregate runs the aggregate of the AU-DB rewrite of
// a PDBench GROUP BY — five SUMs over CASE/least/greatest bound arguments,
// COUNT(*) and two MAXes over the existence annotations — through the
// spilling HashAggregate at budgets that force one spilled generation,
// several, and recursive re-partitioning, and requires the in-memory
// answer: same groups in the same order, integers and strings bit-exact,
// float sums equal up to the re-association of merging partial sums
// (relative 1e-9, the bound the out-of-core benchmark also checks).
func TestSpillAgreementAUAggregate(t *testing.T) {
	w := pdbench.Generate(pdbench.Config{SF: 1, Uncertainty: 0.05, Seed: 3})
	li, err := rewrite.EncodeAttrX(w.Tables["lineitem"])
	if err != nil {
		t.Fatal(err)
	}
	front := rewrite.NewFrontend(engine.NewCatalog())
	front.PutAttrTable("lineitem", li)
	stmt, err := sql.Parse("SELECT l_orderkey, SUM(l_extendedprice) AS revenue, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := front.PlanAttr(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var agg *algebra.Aggregate
	for node := plan; agg == nil; {
		switch n := node.(type) {
		case *algebra.Project:
			node = n.Input
		case *algebra.Aggregate:
			agg = n
		default:
			t.Fatalf("no aggregate under the AU plan's projections: %T", node)
		}
	}
	if len(agg.Aggs) != 8 {
		t.Fatalf("AU aggregate has %d inner aggregates, want 8", len(agg.Aggs))
	}

	dir := t.TempDir()
	run := func(dop int, budget int64) ([][]types.Value, *physical.HashAggregate, *physical.MemGovernor) {
		t.Helper()
		gov := physical.NewMemGovernor(budget)
		op, err := physical.LowerOpts(agg, front.AEnc, physical.Options{DOP: dop, MorselSize: 512,
			MinParallelRows: 1, Gov: gov, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		h, ok := op.(*physical.HashAggregate)
		if gov != nil && !ok {
			t.Fatalf("governed AU aggregate lowered to %T", op)
		}
		rows, err := physical.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("budget %d: %d spill files left (%v)", budget, len(ents), err)
		}
		return rows, h, gov
	}
	want, _, _ := run(1, 0)
	_, h, gov := run(1, 1<<40)
	if gens, _ := h.SpillStats(); gens != 0 {
		t.Fatalf("unbounded budget spilled %d generations", gens)
	}
	table := gov.Peak() // the in-memory group table, as the governor counts it

	// Budgets descend from just under the table: the first spills one
	// generation mid-stream (then flushes the last), smaller ones spill
	// several, and the smallest leave a single partition over budget, so
	// its merge re-partitions recursively. Every budget must agree with the
	// in-memory answer, and all three regimes must occur.
	seen := map[string]bool{}
	for _, f := range []float64{0.99, 0.9, 0.5, 0.2, 0.03} {
		budget := int64(f * float64(table))
		for _, dop := range []int{1, 2} {
			got, h, gov := run(dop, budget)
			gens, depth := h.SpillStats()
			regime := "several generations"
			switch {
			case gens < 2:
				t.Fatalf("budget %d of %d (dop %d) spilled %d generations", budget, table, dop, gens)
			case depth > 1:
				regime = "recursive re-partitioning"
			case gens == 2:
				regime = "one generation"
			}
			seen[regime] = true
			if gov.InUse() != 0 {
				t.Fatalf("budget %d: %d bytes still reserved after Close", budget, gov.InUse())
			}
			requireSameUpToSumOrder(t, got, want, fmt.Sprintf("budget %d of %d (%s, dop %d)", budget, table, regime, dop))
		}
	}
	for _, regime := range []string{"one generation", "several generations", "recursive re-partitioning"} {
		if !seen[regime] {
			t.Errorf("no budget exercised %s", regime)
		}
	}
}

// requireSameUpToSumOrder compares rows in order: float cells may differ
// by a relative 1e-9, every other cell must be bit-identical.
func requireSameUpToSumOrder(t *testing.T, got, want [][]types.Value, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j, w := range want[i] {
			g := got[i][j]
			if g.Kind() == types.KindFloat && w.Kind() == types.KindFloat {
				a, b := g.Float(), w.Float()
				if math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
					continue
				}
			} else if string(spill.AppendValue(nil, g)) == string(spill.AppendValue(nil, w)) {
				continue
			}
			t.Fatalf("%s: row %d column %d is %v, in memory %v", what, i, j, g, w)
		}
	}
}
