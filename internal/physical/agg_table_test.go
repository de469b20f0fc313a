package physical

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggMixes are the aggregate shapes the table tests fold: the plain
// operators, the eight inner aggregates of the AU-DB rewrite of
// `SELECT k, SUM(v), COUNT(*) ... GROUP BY k` (five SUMs, COUNT(*), two
// MAXes over the existence annotations), and MIN/MAX over strings grouped
// by a string. Input columns: 0 int key, 1 int, 2 float, 3 string key,
// 4 string, 5 int in {0, 1}.
func aggMixes() []struct {
	name    string
	groupBy []algebra.Expr
	aggs    []algebra.AggSpec
} {
	col := func(i int) algebra.Expr { return algebra.Col{Idx: i} }
	agg := func(fn algebra.AggFunc, arg int) algebra.AggSpec {
		if arg < 0 {
			return algebra.AggSpec{Func: fn, Star: true}
		}
		return algebra.AggSpec{Func: fn, Arg: col(arg)}
	}
	return []struct {
		name    string
		groupBy []algebra.Expr
		aggs    []algebra.AggSpec
	}{
		{"count", []algebra.Expr{col(0)}, []algebra.AggSpec{agg(algebra.AggCount, -1)}},
		{"sum-avg-count", []algebra.Expr{col(0)}, []algebra.AggSpec{
			agg(algebra.AggSum, 1), agg(algebra.AggAvg, 2), agg(algebra.AggCount, 2)}},
		{"au-8", []algebra.Expr{col(0)}, []algebra.AggSpec{
			agg(algebra.AggSum, 2), agg(algebra.AggSum, 2), agg(algebra.AggSum, 2),
			agg(algebra.AggSum, 5), agg(algebra.AggSum, 5), agg(algebra.AggCount, -1),
			agg(algebra.AggMax, 5), agg(algebra.AggMax, 5)}},
		{"minmax-strings", []algebra.Expr{col(3)}, []algebra.AggSpec{
			agg(algebra.AggMin, 4), agg(algebra.AggMax, 4), agg(algebra.AggCount, 4)}},
	}
}

// aggInput builds the mixes' input as columnar batches: 3 rows per group
// for groups groups.
func aggInput(groups int) []Batch {
	n := 3 * groups
	keys, ints, ecs := make([]int64, n), make([]int64, n), make([]int64, n)
	floats := make([]float64, n)
	skeys, strs := make([]string, n), make([]string, n)
	for i := 0; i < n; i++ {
		g := (i * 7919) % groups
		keys[i], ints[i], ecs[i] = int64(g), int64(i), int64(i%2)
		floats[i] = float64(i) / 4
		skeys[i] = fmt.Sprintf("group-%07d", g)
		strs[i] = fmt.Sprintf("value-%09d", i*31%n)
	}
	cols := []vector.Vector{
		vector.NewInt64Vector(keys, nil), vector.NewInt64Vector(ints, nil),
		vector.NewFloat64Vector(floats, nil), vector.NewStringVector(skeys, nil),
		vector.NewStringVector(strs, nil), vector.NewInt64Vector(ecs, nil),
	}
	var out []Batch
	for lo := 0; lo < n; lo += DefaultBatchSize {
		hi := min(lo+DefaultBatchSize, n)
		win := make([]vector.Vector, len(cols))
		for j, c := range cols {
			win[j] = c.Slice(lo, hi)
		}
		var b Batch
		b.SetCols(win, hi-lo)
		out = append(out, b)
	}
	return out
}

// foldTable folds batches into a fresh table; the folder and its scratch
// die with the call.
func foldTable(groupBy []algebra.Expr, aggs []algebra.AggSpec, batches []Batch) *aggTable {
	t := newAggTable(len(groupBy), aggs)
	f := newAggFolder(nil, groupBy, aggArgs(aggs))
	for i := range batches {
		f.fold(&batches[i], t)
	}
	return t
}

// TestAggTableMemSizeHonest checks the governor's estimate against the
// heap: for every mix, the live heap a folded table adds (after GC) must
// not exceed stateMemSize, so a budget charged with the estimate bounds
// the real working set.
func TestAggTableMemSizeHonest(t *testing.T) {
	for _, groups := range []int{3000, 40000} {
		batches := aggInput(groups)
		for _, mix := range aggMixes() {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb := foldTable(mix.groupBy, mix.aggs, batches)
			runtime.GC()
			runtime.ReadMemStats(&after)
			grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			est := tb.stateMemSize()
			if tb.len() != groups {
				t.Fatalf("%s: %d groups, want %d", mix.name, tb.len(), groups)
			}
			runtime.KeepAlive(tb)
			t.Logf("%s, %d groups: estimate %d B (%.0f B/group), measured %d B (%.2fx)",
				mix.name, groups, est, float64(est)/float64(groups), grown, float64(est)/float64(grown))
			if est < grown {
				t.Errorf("%s, %d groups: stateMemSize %d B under the measured heap growth %d B",
					mix.name, groups, est, grown)
			}
		}
	}
}

// edgeValues are the values the codec must carry bit for bit.
func edgeValues() []types.Value {
	return []types.Value{
		types.Null(),
		types.NewInt(0), types.NewInt(1<<53 + 1), types.NewInt(-(1<<53 + 1)),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.Float64frombits(0x7ff8000000000abc)), // NaN with a payload
		types.NewFloat(math.Float64frombits(0xfff0000000000001)), // signalling-NaN bits
		types.NewFloat(math.Inf(1)), types.NewFloat(-1.5), types.NewFloat(1 << 60),
		types.NewString(""), types.NewString("ü|x"), types.NewBool(true), types.NewBool(false),
	}
}

// sameValue is bit-exact identity: kind and payload bits, via the spill
// codec's exact encoding.
func sameValue(a, b types.Value) bool {
	return string(spill.AppendValue(nil, a)) == string(spill.AppendValue(nil, b))
}

// requireSamePartials compares n states of two column sets bit for bit.
func requireSamePartials(t *testing.T, got, want []aggCol, n int, what string) {
	t.Helper()
	for a := range want {
		g, w := &got[a], &want[a]
		for j := 0; j < n; j++ {
			ok := true
			if w.count != nil {
				ok = ok && g.count[j] == w.count[j]
			}
			if w.sumI != nil {
				ok = ok && g.sumI[j] == w.sumI[j]
			}
			if w.sumF != nil {
				ok = ok && math.Float64bits(g.sumF[j]) == math.Float64bits(w.sumF[j])
			}
			if w.isFloat != nil {
				ok = ok && g.isFloat[j] == w.isFloat[j]
			}
			if w.ext != nil {
				ok = ok && sameValue(g.ext[j], w.ext[j])
			}
			if !ok {
				t.Fatalf("%s: aggregate %d state %d differs after the round trip", what, a, j)
			}
		}
	}
}

// roundTrip encodes states sel of (vals, cols) and decodes them back.
func roundTrip(t *testing.T, nGroup int, aggs []algebra.AggSpec, vals []types.Value, cols []aggCol,
	sel []int, seqOf func(int) int64) *partialBlock {
	t.Helper()
	enc := partialEncoder{nGroup: nGroup}
	buf := enc.appendPartials(nil, vals, cols, sel, seqOf)
	blk, err := decodePartials(buf, len(sel), nGroup, aggs)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return blk
}

// TestPartialCodecRoundTrip writes states holding every edge value — NaN
// payloads, ±0, integers past 2^53, mixed-kind extremes, NULL and string
// group values — and requires them back bit for bit.
func TestPartialCodecRoundTrip(t *testing.T) {
	aggs := []algebra.AggSpec{
		{Func: algebra.AggCount, Star: true}, {Func: algebra.AggSum}, {Func: algebra.AggAvg},
		{Func: algebra.AggMin}, {Func: algebra.AggMax},
	}
	edges := edgeValues()
	tb := newAggTable(2, aggs)
	for i, v := range edges {
		w := edges[(i*5+3)%len(edges)]
		id := tb.add(fmt.Sprint(i), []types.Value{v, w})
		x := edges[(i*3+1)%len(edges)]
		tb.cols[0].count[id] = int64(i) << 40
		tb.cols[1].count[id] = int64(i)
		tb.cols[1].sumI[id] = (1<<53 + 1) * int64(i-8)
		if x.Kind() == types.KindFloat {
			tb.cols[1].sumF[id] = x.Float()
		}
		tb.cols[1].isFloat[id] = i%2 == 0
		tb.cols[2].count[id] = int64(-i)
		tb.cols[2].sumF[id] = math.Float64frombits(0x7ff0000000000000 | uint64(i+1))
		tb.cols[3].ext[id] = x // mixed kinds down the column, NULL = unseen
		tb.cols[4].ext[id] = w
	}
	sel := make([]int, tb.len())
	for j := range sel {
		sel[j] = tb.len() - 1 - j // reversed: the block holds any subset, in any order
	}
	seqOf := func(j int) int64 { return math.MaxInt64 - int64(j) }
	blk := roundTrip(t, 2, aggs, tb.vals, tb.cols, sel, seqOf)
	want := sliceColsAt(tb.cols, sel)
	requireSamePartials(t, blk.cols, want, len(sel), "edge states")
	for i, j := range sel {
		if blk.seq[i] != seqOf(j) {
			t.Fatalf("state %d: seq %d, want %d", i, blk.seq[i], seqOf(j))
		}
		for g := 0; g < 2; g++ {
			if got, want := blk.groupRow(i)[g], tb.vals[j*2+g]; !sameValue(got, want) {
				t.Fatalf("state %d group value %d: %v, want %v", i, g, got, want)
			}
		}
	}

	// A corrupt or truncated block is an error, never a panic.
	enc := partialEncoder{nGroup: 2}
	buf := enc.appendPartials(nil, tb.vals, tb.cols, sel, seqOf)
	for _, bad := range [][]byte{buf[:len(buf)-1], append(buf[:len(buf):len(buf)], 0), buf[1:]} {
		if _, err := decodePartials(bad, len(sel), 2, aggs); err == nil {
			t.Fatal("corrupt block decoded without error")
		}
	}
}

// sliceColsAt gathers states sel of cols into dense columns.
func sliceColsAt(cols []aggCol, sel []int) []aggCol {
	out := newAggCols(nil)
	for _, c := range cols {
		d := aggCol{fn: c.fn}
		for _, j := range sel {
			if c.count != nil {
				d.count = append(d.count, c.count[j])
			}
			if c.sumI != nil {
				d.sumI = append(d.sumI, c.sumI[j])
			}
			if c.sumF != nil {
				d.sumF = append(d.sumF, c.sumF[j])
			}
			if c.isFloat != nil {
				d.isFloat = append(d.isFloat, c.isFloat[j])
			}
			if c.ext != nil {
				d.ext = append(d.ext, c.ext[j])
			}
		}
		out = append(out, d)
	}
	return out
}

// TestAggregateSpillKindsFlipAcrossGenerations spills generations whose
// partial states disagree in kind: each group's SUM argument is an integer
// in the first half of the input and a float in the second, so the float
// flag flips between generations, and its MIN/MAX argument changes kind
// from integers to strings to booleans. The spilled answer must equal the
// in-memory one exactly (the floats are dyadic, so the merge's
// re-association is exact), on the boxed row path and the columnar one.
func TestAggregateSpillKindsFlipAcrossGenerations(t *testing.T) {
	const groups, n = 500, 6000
	schema := types.NewSchema("t", "k", "x", "m")
	rows := make([][]types.Value, n)
	for i := range rows {
		x := types.NewInt(int64(i))
		m := types.NewInt(int64(i % 97))
		if i >= n/2 {
			x = types.NewFloat(float64(i) / 8)
			m = types.NewString(fmt.Sprintf("s%03d", i%89))
		}
		if i >= 5*n/6 {
			m = types.NewBool(i%2 == 0)
		}
		rows[i] = []types.Value{types.NewInt(int64(i % groups)), x, m}
	}
	groupBy := []algebra.Expr{algebra.Col{Idx: 0}}
	aggs := []algebra.AggSpec{
		{Func: algebra.AggSum, Arg: algebra.Col{Idx: 1}, Name: "s"},
		{Func: algebra.AggAvg, Arg: algebra.Col{Idx: 1}, Name: "a"},
		{Func: algebra.AggMin, Arg: algebra.Col{Idx: 2}, Name: "lo"},
		{Func: algebra.AggMax, Arg: algebra.Col{Idx: 2}, Name: "hi"},
	}
	scans := map[string]func() Operator{
		"rows": func() Operator { return NewScan("t", schema, rows) },
		"columns": func() Operator {
			return NewColumnarScan("t", schema, rows, vector.FromRows(rows, 3))
		},
	}
	for name, scan := range scans {
		want := drainAll(t, NewHashAggregate(scan(), groupBy, []string{"k"}, aggs), "in-memory")
		dir := t.TempDir()
		h := NewHashAggregate(scan(), groupBy, []string{"k"}, aggs)
		h.Mem, h.SpillDir = NewMemGovernor(16<<10), dir
		got := drainAll(t, h, "spilling")
		if gens, _ := h.SpillStats(); gens < 3 {
			t.Fatalf("%s: %d generations spilled, want several", name, gens)
		}
		for i := range want {
			for j := range want[i] {
				if !sameValue(got[i][j], want[i][j]) {
					t.Fatalf("%s: row %d column %d is %v, in memory %v", name, i, j, got[i][j], want[i][j])
				}
			}
		}
		requireEmptyDir(t, dir, "after aggregate Close")
	}
}

// FuzzPartialCodec round-trips fuzz-chosen partial states through the
// typed spill format bit for bit, and feeds the raw input to the decoder,
// which must return an error or a block, never panic.
func FuzzPartialCodec(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254})
	f.Add([]byte{0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1})
	f.Add([]byte("II\x00\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() uint64 {
			var w uint64
			for i := 0; i < 8; i++ {
				w = w<<8 | uint64(next())
			}
			return w
		}
		edges := edgeValues()
		value := func() types.Value {
			switch c := next(); c % 4 {
			case 0:
				return types.NewInt(int64(word()))
			case 1:
				return types.NewFloat(math.Float64frombits(word()))
			default:
				return edges[int(c/4)%len(edges)]
			}
		}
		raw := append([]byte(nil), data...)
		nGroup := int(next() % 3)
		aggs := make([]algebra.AggSpec, 1+int(next()%5))
		for a := range aggs {
			aggs[a].Func = algebra.AggFunc(next() % 5)
		}
		n := 1 + int(next()%9)
		_, _ = decodePartials(raw, n, nGroup, aggs) // an error or a block, never a panic
		vals := make([]types.Value, n*nGroup)
		for i := range vals {
			vals[i] = value()
		}
		cols := newAggCols(aggs)
		for j := 0; j < n; j++ {
			for a := range cols {
				c := &cols[a]
				c.grow()
				switch c.fn {
				case algebra.AggCount:
					c.count[j] = int64(word())
				case algebra.AggSum:
					c.count[j], c.sumI[j] = int64(word()), int64(word())
					c.sumF[j], c.isFloat[j] = math.Float64frombits(word()), next()%2 == 0
				case algebra.AggAvg:
					c.count[j], c.sumF[j] = int64(word()), math.Float64frombits(word())
				default:
					c.ext[j] = value()
				}
			}
		}
		sel := make([]int, n)
		for j := range sel {
			sel[j] = j
		}
		blk := roundTrip(t, nGroup, aggs, vals, cols, sel, func(j int) int64 { return int64(j) - 3 })
		requireSamePartials(t, blk.cols, cols, n, "fuzzed states")
		for i := range vals {
			if !sameValue(blk.vals[i], vals[i]) {
				t.Fatalf("group value %d: %v, want %v", i, blk.vals[i], vals[i])
			}
		}
	})
}
