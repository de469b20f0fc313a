package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// The correctness checks. Each runs outside the timed region and compares
// a result against a reference computed from the same run's inputs, never
// against fixed row counts: the generators do not yet give the same data
// for the same seed (see README.md).

// rowKey is the bit-exact canonical key of the first k cells of a row.
func rowKey(row []types.Value, k int) string {
	var b []byte
	for _, v := range row[:k] {
		b = appendValue(b, v)
	}
	return string(b)
}

// checkUAMatchesDet checks the UA-DB contract on one paired execution: the
// UA result with its trailing certainty column dropped is, as a bag, the
// deterministic result over the best-guess world.
func checkUAMatchesDet(schema types.Schema, ua, det [][]types.Value) error {
	k := schema.Arity() - 1
	if k < 0 || schema.Attrs[k] != uadb.UAttr {
		return fmt.Errorf("UA result %v has no trailing %s column", schema.Attrs, uadb.UAttr)
	}
	if len(ua) != len(det) {
		return fmt.Errorf("UA result has %d rows, deterministic result %d", len(ua), len(det))
	}
	counts := make(map[string]int, len(det))
	for _, row := range det {
		if len(row) != k {
			return fmt.Errorf("deterministic row has %d columns, UA user columns %d", len(row), k)
		}
		counts[rowKey(row, k)]++
	}
	for _, row := range ua {
		if c := row[k]; c.Kind() != types.KindInt || (c.Int() != 0 && c.Int() != 1) {
			return fmt.Errorf("UA row %v has certainty %v, want 0 or 1", row, c)
		}
		key := rowKey(row, k)
		if counts[key] == 0 {
			return fmt.Errorf("UA row %v is not in the deterministic result", row[:k])
		}
		counts[key]--
	}
	return nil
}

// checkUAMatchesRA checks a UA result in the relational encoding against
// the same query's RA form evaluated over the UA database with K-relation
// semantics in the UA semiring, an evaluation path that shares no code
// with the SQL frontend. A tuple annotated [c, d] there must appear c times
// with __cert 1 and d-c times with __cert 0, and no other row may appear.
func checkUAMatchesRA(schema types.Schema, rows [][]types.Value, want *uadb.Relation[int64]) error {
	n := schema.Arity()
	if n < 1 || schema.Attrs[n-1] != uadb.UAttr {
		return fmt.Errorf("UA result %v has no trailing %s column", schema.Attrs, uadb.UAttr)
	}
	if want.Schema().Arity() != n-1 {
		return fmt.Errorf("UA result has %d user columns, the RA evaluation %d", n-1, want.Schema().Arity())
	}
	counts := make(map[string]int64, len(rows))
	for _, row := range rows {
		counts[rowKey(row, n)]++
	}
	var err error
	want.ForEach(func(t types.Tuple, p semiring.Pair[int64]) {
		for _, c := range []struct{ cert, times int64 }{{1, p.Cert}, {0, p.Det - p.Cert}} {
			key := rowKey(append(t.Clone(), types.NewInt(c.cert)), n)
			if got := counts[key]; got != c.times && err == nil {
				err = fmt.Errorf("tuple %v with %s=%d appears %d times, the RA evaluation gives %d",
					t, uadb.UAttr, c.cert, got, c.times)
			}
			delete(counts, key)
		}
	})
	if err == nil && len(counts) > 0 {
		err = fmt.Errorf("%d distinct rows are not in the RA evaluation", len(counts))
	}
	return err
}

// checkSame checks that a result is bit-for-bit the reference: same row
// count and the same ordered digest.
func checkSame(what string, gotRows int, got uint64, want answer) error {
	if gotRows != want.rows {
		return fmt.Errorf("%s: %d rows, reference has %d", what, gotRows, want.rows)
	}
	if got != want.digest {
		return fmt.Errorf("%s: result differs from the reference (digest %016x, want %016x)", what, got, want.digest)
	}
	return nil
}

// floatTolerance is the relative difference two float cells of an
// aggregate may show when the same values were summed in another order.
const floatTolerance = 1e-9

// checkSameUpToSumOrder compares a result with its reference row by row and
// cell by cell. Cells must be bit-identical, except float cells, which may
// differ by summation-order rounding (relative floatTolerance). It returns
// how many float cells differed in their bits.
func checkSameUpToSumOrder(got, want [][]types.Value) (floatDiffs int, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return 0, fmt.Errorf("row %d has %d cells, reference %d", i, len(got[i]), len(want[i]))
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.Kind() == types.KindFloat && w.Kind() == types.KindFloat {
				a, b := g.Float(), w.Float()
				if math.Float64bits(a) == math.Float64bits(b) {
					continue
				}
				if math.Abs(a-b) <= floatTolerance*math.Max(math.Abs(a), math.Abs(b)) {
					floatDiffs++
					continue
				}
			} else if string(appendValue(nil, g)) == string(appendValue(nil, w)) {
				continue
			}
			return floatDiffs, fmt.Errorf("row %d column %d is %v, reference %v", i, j, g, w)
		}
	}
	return floatDiffs, nil
}

// checkAUBounds checks every AU-DB result row in the spine layout: for each
// logical attribute the lower bound, best guess and upper bound are ordered
// lo <= bg <= hi (NULL cells are skipped), and the existence annotations
// satisfy __ec <= __ebg.
func checkAUBounds(schema types.Schema, rows [][]types.Value) error {
	n := schema.Arity()
	if n < 2 || (n-2)%3 != 0 || schema.Attrs[n-2] != rewrite.AttrECName || schema.Attrs[n-1] != rewrite.AttrEBGName {
		return fmt.Errorf("AU result %v is not in the spine layout", schema.Attrs)
	}
	k := (n - 2) / 3
	for r, row := range rows {
		for i := 0; i < k; i++ {
			lo, bg, hi := row[3*i], row[3*i+1], row[3*i+2]
			if lo.IsNull() || bg.IsNull() || hi.IsNull() {
				continue
			}
			if lo.Compare(bg) > 0 || bg.Compare(hi) > 0 {
				return fmt.Errorf("AU row %d attribute %s: bounds [%v, %v, %v] are not ordered",
					r, schema.Attrs[3*i+1], lo, bg, hi)
			}
		}
		ec, ebg := row[n-2], row[n-1]
		if ec.Compare(ebg) > 0 {
			return fmt.Errorf("AU row %d: %s=%v exceeds %s=%v", r, rewrite.AttrECName, ec, rewrite.AttrEBGName, ebg)
		}
	}
	return nil
}

// checkDirEmpty checks that a query left no spill files behind.
func checkDirEmpty(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return fmt.Errorf("spill directory holds %d files after the query, first %s", len(ents), ents[0].Name())
	}
	return nil
}

// answer is a reference result: its row count and ordered digest.
type answer struct {
	rows   int
	digest uint64
}

func answerOf(res *physical.Result) answer {
	return answer{rows: res.NumRows(), digest: digestResult(res)}
}

// digestResult digests a result without materializing rows when it is
// columnar.
func digestResult(res *physical.Result) uint64 {
	k := res.Schema.Arity()
	if cols := res.Cols(); cols != nil {
		return digestCells(cols.N, k, func(i, j int) types.Value { return cols.Vecs[j].Value(i) })
	}
	return digestRows(res.Rows(), k)
}
