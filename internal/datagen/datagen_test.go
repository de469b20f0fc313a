package datagen

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/types"
)

func TestSpecsCount(t *testing.T) {
	if len(Specs()) != 9 {
		t.Fatalf("specs = %d, want 9 (Figure 16)", len(Specs()))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Specs()[1]
	a, b := Generate(spec), Generate(spec)
	if a.UncertainRowFraction() != b.UncertainRowFraction() {
		t.Error("generation not deterministic")
	}
	if len(a.X.XTuples) != len(b.X.XTuples) {
		t.Error("row counts differ")
	}
}

// TestGenerateRealTablesSameSeed checks the real-query tables cell for
// cell: the same seed must give identical x-relations, alternatives and
// their order included.
func TestGenerateRealTablesSameSeed(t *testing.T) {
	a, b := GenerateRealTables(400, 0.3, 5), GenerateRealTables(400, 0.3, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("two generations with the same seed differ")
	}
}

func TestGenerateShape(t *testing.T) {
	spec := Specs()[4] // Contracts: 13 cols, high uncertainty
	d := Generate(spec)
	if d.Ground.NumRows() != spec.Rows {
		t.Errorf("ground rows = %d", d.Ground.NumRows())
	}
	if d.Schema.Arity() != spec.Cols {
		t.Errorf("cols = %d", d.Schema.Arity())
	}
	if len(d.X.XTuples) != spec.Rows {
		t.Errorf("x-tuples = %d", len(d.X.XTuples))
	}
	// Realized uncertainty within a factor of two of the target.
	ur := d.UncertainRowFraction()
	if ur < spec.URow/2 || ur > spec.URow*2 {
		t.Errorf("realized U_row %.3f vs target %.3f", ur, spec.URow)
	}
	uc := d.UncertainCellFraction()
	if uc <= 0 || uc > spec.UAttr*4 {
		t.Errorf("realized U_attr %.4f vs target %.4f", uc, spec.UAttr)
	}
}

func TestGenerateBestGuessHitsTruthOften(t *testing.T) {
	spec := Specs()[2]
	d := Generate(spec)
	// The first alternative (best guess) should coincide with ground truth
	// for a solid majority of uncertain rows (the generator aims for ~60%
	// per dirty cell plus clean cells).
	hits, n := 0, 0
	for i, xt := range d.X.XTuples {
		if len(xt.Alts) <= 1 {
			continue
		}
		n++
		if xt.Alts[0].Data.Equal(types.Tuple(d.Ground.Rows[i])) {
			hits++
		}
	}
	if n == 0 {
		t.Fatal("no uncertain rows generated")
	}
	if frac := float64(hits) / float64(n); frac < 0.2 {
		t.Errorf("best guess hits truth only %.2f of the time", frac)
	}
}

func TestRealTables(t *testing.T) {
	rt := GenerateRealTables(300, 0.1, 1)
	tables := rt.Tables()
	if len(tables) != 3 {
		t.Fatal("tables")
	}
	for name, x := range tables {
		if len(x.XTuples) != 300 {
			t.Errorf("%s rows = %d", name, len(x.XTuples))
		}
		uncertain := 0
		for _, xt := range x.XTuples {
			if len(xt.Alts) > 1 {
				uncertain++
			}
		}
		rate := float64(uncertain) / 300
		if rate < 0.03 || rate > 0.2 {
			t.Errorf("%s uncertain rate %.3f", name, rate)
		}
	}
	if len(RealQueries()) != 5 {
		t.Error("five real queries")
	}
}

func TestGenerateUtilityCoherence(t *testing.T) {
	ud := GenerateUtility(200, 6, 0.3, BGQP, 11)
	if ud.Ground.NumRows() != 200 || ud.Nulled.NumRows() != 200 {
		t.Fatal("row counts")
	}
	nulls := 0
	for i, row := range ud.Nulled.Rows {
		for j, v := range row {
			if v.IsNull() {
				nulls++
			} else if !v.Equal(ud.Ground.Rows[i][j]) {
				t.Fatalf("non-null cell differs from ground truth at %d/%d", i, j)
			}
		}
	}
	rate := float64(nulls) / float64(200*6)
	if rate < 0.2 || rate > 0.4 {
		t.Errorf("null rate %.3f, want ≈ 0.3", rate)
	}
	// x-DB has one x-tuple per row; clean rows certain.
	if len(ud.X.XTuples) != 200 {
		t.Error("x rows")
	}
}

func TestGroundNulledIdenticalAcrossMethods(t *testing.T) {
	a := GenerateUtility(100, 5, 0.2, BGQP, 9)
	b := GenerateUtility(100, 5, 0.2, RGQP, 9)
	for i := range a.Ground.Rows {
		if !types.Tuple(a.Ground.Rows[i]).Equal(types.Tuple(b.Ground.Rows[i])) {
			t.Fatal("ground truth differs across imputation methods")
		}
		if !types.Tuple(a.Nulled.Rows[i]).Equal(types.Tuple(b.Nulled.Rows[i])) {
			t.Fatal("nulled table differs across imputation methods")
		}
	}
}

func TestBGQPImputesMode(t *testing.T) {
	ud := GenerateUtility(500, 4, 0.5, BGQP, 13)
	// Column modes: recompute from ground truth.
	counts := map[string]int{}
	for _, row := range ud.Ground.Rows {
		counts[row[1].Str()]++
	}
	mode, best := "", -1
	for v, c := range counts {
		if c > best {
			mode, best = v, c
		}
	}
	// Every imputed a1-cell (null in Nulled) must be the mode.
	for i, row := range ud.Nulled.Rows {
		if row[1].IsNull() {
			imputed := ud.X.XTuples[i].Alts[0].Data[1].Str()
			if imputed != mode {
				t.Fatalf("BGQP imputed %q, mode is %q", imputed, mode)
			}
		}
	}
}

func TestPrecisionRecall(t *testing.T) {
	mk := func(vals ...int64) *engine.Table {
		tb := engine.NewTable(types.NewSchema("t", "a"))
		for _, v := range vals {
			tb.AppendVals(types.NewInt(v))
		}
		return tb
	}
	p, r := PrecisionRecall(mk(1, 2), mk(1, 2, 3))
	if p != 1 || r < 0.66 || r > 0.67 {
		t.Errorf("p=%f r=%f", p, r)
	}
	p, r = PrecisionRecall(mk(1, 9), mk(1, 2))
	if p != 0.5 || r != 0.5 {
		t.Errorf("p=%f r=%f", p, r)
	}
	p, r = PrecisionRecall(mk(), mk())
	if p != 1 || r != 1 {
		t.Error("empty/empty")
	}
	p, r = PrecisionRecall(mk(), mk(1))
	if p != 1 || r != 0 {
		t.Error("empty result")
	}
}

func TestUncertainCellFractionEmpty(t *testing.T) {
	x := models.NewXRelation(types.NewSchema("t", "a"))
	d := &Dataset{Schema: x.Schema, X: x}
	if d.UncertainCellFraction() != 0 {
		t.Error("empty dataset")
	}
}
