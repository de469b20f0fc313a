// Attribute-level annotations: the paper's future-work extension
// (Section 12), served by the frontend's AU-DB mode (QueryOpts.AttrBounds).
// Tuple-level UA-DBs mark a whole row uncertain as soon as any cell is
// imputed; the AU-DB encoding gives every attribute a [lo, best-guess, hi]
// range and every row a certain multiplicity (__ec), so an attribute is
// certain iff lo == hi, and projections that discard the noisy cells
// recover full certainty — removing the false negatives the paper's
// Figure 15 measures.
package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

func main() {
	s := func(v string) types.Value { return types.NewString(v) }
	i := func(v int64) types.Value { return types.NewInt(v) }

	// A patients table where only the *age* column was imputed: each
	// uncertain row has two candidate ages but identical id/diagnosis.
	x := models.NewXRelation(types.NewSchema("patients", "id", "diagnosis", "age"))
	x.AddCertain(types.Tuple{i(1), s("flu"), i(34)})
	x.AddChoice(
		types.Tuple{i(2), s("asthma"), i(51)},
		types.Tuple{i(2), s("asthma"), i(15)},
	)
	x.AddChoice(
		types.Tuple{i(3), s("flu"), i(42)},
		types.Tuple{i(3), s("flu"), i(44)},
	)

	// Tuple-level UA-DB: the query "which diagnoses occur?" marks rows 2
	// and 3 uncertain even though their diagnoses are beyond doubt.
	db := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	db.Put(uadb.FromXDB(x))
	res, err := uadb.Eval(kdb.ProjectQ{Input: kdb.Table{Name: "patients"}, Attrs: []string{"id", "diagnosis"}}, db)
	if err != nil {
		panic(err)
	}
	fmt.Println("Tuple-level labels on SELECT id, diagnosis:")
	for _, t := range res.Tuples() {
		mark := "uncertain (false negative!)"
		if res.Get(t).Cert > 0 {
			mark = "CERTAIN"
		}
		fmt.Printf("  %-18s %s\n", t, mark)
	}

	// Attribute-level ranges know the uncertainty lives in the age column
	// only: projecting it away restores certainty.
	at, err := rewrite.EncodeAttrX(x)
	if err != nil {
		panic(err)
	}
	front := rewrite.NewFrontend(engine.NewCatalog())
	front.PutAttrTable("patients", at)
	query := func(q string) [][]types.Value {
		res, err := front.Query(context.Background(), q, rewrite.QueryOpts{AttrBounds: true})
		if err != nil {
			panic(err)
		}
		tbl := engine.ResultTable(res)
		tbl.SortRows()
		return tbl.Rows
	}

	// Each answer row is [lo, bg, hi] per attribute, then __ec and __ebg.
	fmt.Println("\nAttribute-level ranges on the same projection:")
	for _, row := range query("SELECT id, diagnosis FROM patients") {
		mark := "uncertain"
		if row[6].Int() > 0 && row[0].Equal(row[2]) && row[3].Equal(row[5]) {
			mark = "CERTAIN"
		}
		fmt.Printf("  %-18s %s\n", types.Tuple{row[1], row[4]}, mark)
	}

	// Selections show the flip side: filtering on the uncertain age makes
	// survival uncertain where the age range straddles the bound (row 2),
	// while a range wholly above it (row 3, 42..44) still certainly passes.
	fmt.Println("\nAfter WHERE age >= 18 (age was imputed):")
	for _, row := range query("SELECT id, diagnosis, age FROM patients WHERE age >= 18") {
		mark := "uncertain"
		if row[9].Int() > 0 {
			mark = "certainly present"
		}
		fmt.Printf("  %-22s %s\n", types.Tuple{row[1], row[4], row[7]}, mark)
	}
}
