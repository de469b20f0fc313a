package physical

import (
	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggTable is one aggregate operator's group table: the canonical group key
// (key.go) maps to a dense group id, and every piece of per-group state is a
// column indexed by that id — the group-by values in one flat slice, and one
// aggCol per aggregate holding only what its function needs. Ids are handed
// out in first-seen order, so rendering ids ascending is the engine-wide
// first-seen group order.
//
// Every aggregate operator folds into one: HashAggregate (in-memory and
// governed), ParallelHashAggregate and ParallelFusedAggregate (one table per
// morsel, merged in morsel order), and FusedAggregate. They share one absorb
// path, absorbCol, whose typed arms fold unboxed argument vectors and whose
// boxed arm takes everything else.
type aggTable struct {
	nGroup int
	index  map[string]int32
	keys   []string      // canonical key per group id
	vals   []types.Value // group-by values, nGroup per group id
	cols   []aggCol      // one per aggregate
	// heapBytes estimates what the columns reference outside their own
	// capacity: the key strings' allocations and the string payloads of
	// group values and extremes.
	heapBytes int64
}

// aggCol is one aggregate's state for every group, holding only what its
// function needs:
//
//	COUNT      count
//	SUM        count, sumI, sumF, isFloat
//	AVG        count, sumF
//	MIN, MAX   ext
type aggCol struct {
	fn      algebra.AggFunc
	count   []int64       // non-NULL arguments (rows, for COUNT(*))
	sumI    []int64       // exact integer sum
	sumF    []float64     // float sum, every numeric argument in row order
	isFloat []bool        // some argument was a float: SUM renders sumF
	ext     []types.Value // extreme so far; its NULL kind is the seen flag
}

// Estimated bytes behind each table entry, beyond the columns' capacity.
const (
	// mapEntryBytes bounds one index entry: a 24-byte swiss-table slot at
	// its lowest load (7/16, right after a table splits or doubles), plus
	// the group's control byte and size-class rounding.
	mapEntryBytes = 64
	// stringHeaderBytes is the key slice's string header per group.
	stringHeaderBytes = 16
)

// allocBytes bounds the heap allocation behind an n-byte string: the
// allocator's size classes round up by at most an eighth plus 16 bytes.
func allocBytes(n int) int64 { return int64(n + n/8 + 16) }

func newAggTable(nGroup int, aggs []algebra.AggSpec) *aggTable {
	return &aggTable{nGroup: nGroup, index: make(map[string]int32), cols: newAggCols(aggs)}
}

func newAggCols(aggs []algebra.AggSpec) []aggCol {
	cols := make([]aggCol, len(aggs))
	for i, a := range aggs {
		cols[i].fn = a.Func
	}
	return cols
}

// len reports the number of groups.
func (t *aggTable) len() int { return len(t.keys) }

// find looks a canonical key up without allocating.
func (t *aggTable) find(key []byte) (int32, bool) {
	id, ok := t.index[string(key)]
	return id, ok
}

// add creates a group with zero state for key and its group-by values,
// returning its id.
func (t *aggTable) add(key string, groupVals []types.Value) int32 {
	id := int32(len(t.keys))
	t.index[key] = id
	t.keys = append(t.keys, key)
	t.vals = append(t.vals, groupVals...)
	t.heapBytes += allocBytes(len(key)) + strBytes(groupVals...)
	for i := range t.cols {
		t.cols[i].grow()
	}
	return id
}

// strBytes sums the string payload bytes of vs.
func strBytes(vs ...types.Value) int64 {
	var n int64
	for _, v := range vs {
		if v.Kind() == types.KindString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// grow appends one group's zero state.
func (c *aggCol) grow() {
	switch c.fn {
	case algebra.AggCount:
		c.count = append(c.count, 0)
	case algebra.AggSum:
		c.count = append(c.count, 0)
		c.sumI = append(c.sumI, 0)
		c.sumF = append(c.sumF, 0)
		c.isFloat = append(c.isFloat, false)
	case algebra.AggAvg:
		c.count = append(c.count, 0)
		c.sumF = append(c.sumF, 0)
	default:
		c.ext = append(c.ext, types.Value{})
	}
}

// stateMemSize estimates the table's resident bytes from its layout: every
// column's allocated capacity, the index entries, and the key and string
// payloads the columns reference. It is what the governed aggregate charges
// its memory governor, and TestAggTableMemSizeHonest checks it against the
// measured heap.
func (t *aggTable) stateMemSize() int64 {
	return int64(len(t.keys))*mapEntryBytes + int64(cap(t.keys))*stringHeaderBytes +
		int64(cap(t.vals))*valueMemBytes + t.heapBytes + colsMemSize(t.cols)
}

// colsMemSize is the allocated capacity of state columns, in bytes.
func colsMemSize(cols []aggCol) int64 {
	var n int64
	for i := range cols {
		c := &cols[i]
		n += 8*int64(cap(c.count)+cap(c.sumI)+cap(c.sumF)) + int64(cap(c.isFloat)) +
			valueMemBytes*int64(cap(c.ext))
	}
	return n
}

// countRows is COUNT(*): every row counts, NULLs included.
func (t *aggTable) countRows(a int, slots []int32) {
	count := t.cols[a].count
	for _, g := range slots {
		count[g]++
	}
}

// absorbCol folds aggregate a's evaluated argument column into the groups
// of the rows: row i belongs to group slots[i] and reads the argument at
// position sel[i] (or i when sel is nil). NULL arguments are skipped. The
// typed arms are the boxed arm unboxed: integer sums stay exact in int64
// while every numeric also feeds the float sum in row order, and MIN/MAX
// follow types.Value.Compare — integers compare widened through float64
// with ties keeping the incumbent, and NaN neither replaces nor is
// replaced. Strings, booleans and mixed-kind columns take the boxed arm.
func (t *aggTable) absorbCol(a int, vec vector.Vector, slots []int32, sel []int) {
	c := &t.cols[a]
	switch c.fn {
	case algebra.AggCount:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if !vec.Null(pos) {
				c.count[g]++
			}
		}
	case algebra.AggSum, algebra.AggAvg:
		c.absorbSum(vec, slots, sel)
	default:
		t.absorbExt(c, vec, slots, sel)
	}
}

// absorbSum is absorbCol's SUM/AVG arm. AVG carries no integer sum or float
// flag; sumI and isFloat are nil there.
func (c *aggCol) absorbSum(vec vector.Vector, slots []int32, sel []int) {
	switch tv := vec.(type) {
	case *vector.Int64Vector:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if tv.Null(pos) {
				continue
			}
			x := tv.Vals[pos]
			c.count[g]++
			if c.sumI != nil {
				c.sumI[g] += x
			}
			c.sumF[g] += float64(x)
		}
	case *vector.Float64Vector:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if tv.Null(pos) {
				continue
			}
			c.count[g]++
			if c.isFloat != nil {
				c.isFloat[g] = true
			}
			c.sumF[g] += tv.Vals[pos]
		}
	default:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			v := vec.Value(pos)
			if v.IsNull() {
				continue
			}
			c.count[g]++
			switch v.Kind() {
			case types.KindInt:
				if c.sumI != nil {
					c.sumI[g] += v.Int()
				}
				c.sumF[g] += v.Float()
			case types.KindFloat:
				if c.isFloat != nil {
					c.isFloat[g] = true
				}
				c.sumF[g] += v.Float()
			}
		}
	}
}

// absorbExt is absorbCol's MIN/MAX arm.
func (t *aggTable) absorbExt(c *aggCol, vec vector.Vector, slots []int32, sel []int) {
	isMin := c.fn == algebra.AggMin
	switch tv := vec.(type) {
	case *vector.Int64Vector:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if tv.Null(pos) {
				continue
			}
			x := tv.Vals[pos]
			switch e := &c.ext[g]; {
			case e.IsNull():
				*e = types.NewInt(x)
			case e.IsNumeric():
				if f := e.Float(); isMin && float64(x) < f || !isMin && float64(x) > f {
					*e = types.NewInt(x)
				}
			default:
				t.offerExt(c, g, types.NewInt(x))
			}
		}
	case *vector.Float64Vector:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if tv.Null(pos) {
				continue
			}
			x := tv.Vals[pos]
			switch e := &c.ext[g]; {
			case e.IsNull():
				*e = types.NewFloat(x)
			case e.IsNumeric():
				if f := e.Float(); isMin && x < f || !isMin && x > f {
					*e = types.NewFloat(x)
				}
			default:
				t.offerExt(c, g, types.NewFloat(x))
			}
		}
	default:
		for i, g := range slots {
			pos := i
			if sel != nil {
				pos = sel[i]
			}
			if v := vec.Value(pos); !v.IsNull() {
				t.offerExt(c, g, v)
			}
		}
	}
}

// offerExt replaces group g's extreme with the non-NULL v when v is the
// first value seen or compares strictly beyond it.
func (t *aggTable) offerExt(c *aggCol, g int32, v types.Value) {
	e := c.ext[g]
	if !e.IsNull() {
		cmp := v.Compare(e)
		if c.fn == algebra.AggMin && cmp >= 0 || c.fn == algebra.AggMax && cmp <= 0 {
			return
		}
	}
	t.heapBytes += strBytes(v) - strBytes(e)
	c.ext[g] = v
}

// merge folds partial state j of src — the columns of another table or of
// a decoded spilled block, for the same aggregate specs — into group dst.
// Counts and sums add, the float flag ORs and extremes combine, which is
// exact for COUNT, integer SUM, MIN and MAX; float SUM/AVG re-associate the
// addition, so a merged float sum can differ from the serial one in the
// last ulp (the merge order — morsel or generation order — is fixed, so a
// given input always gives the same answer). Merging into a fresh group
// copies the partial exactly: a float sum starts at +0 and so is never -0,
// and every NaN in it was produced by an addition, so +0 + sumF is sumF bit
// for bit.
func (t *aggTable) merge(dst int32, src []aggCol, j int) {
	for a := range t.cols {
		c, o := &t.cols[a], &src[a]
		switch c.fn {
		case algebra.AggCount:
			c.count[dst] += o.count[j]
		case algebra.AggSum:
			c.count[dst] += o.count[j]
			c.sumI[dst] += o.sumI[j]
			c.sumF[dst] += o.sumF[j]
			c.isFloat[dst] = c.isFloat[dst] || o.isFloat[j]
		case algebra.AggAvg:
			c.count[dst] += o.count[j]
			c.sumF[dst] += o.sumF[j]
		default:
			if v := o.ext[j]; !v.IsNull() {
				t.offerExt(c, dst, v)
			}
		}
	}
}

// mergeTable merges every group of o into t in o's id order: a group new to
// t takes the next id, so merging partials in sequence order keeps the
// first-seen order of the whole input.
func (t *aggTable) mergeTable(o *aggTable) {
	for j, key := range o.keys {
		id, ok := t.index[key]
		if !ok {
			id = t.add(key, o.vals[j*o.nGroup:(j+1)*o.nGroup])
		}
		t.merge(id, o.cols, j)
	}
}

// appendResult appends group id's output row to row: the group-by values,
// then one rendered value per aggregate.
func (t *aggTable) appendResult(row []types.Value, id int32) []types.Value {
	row = append(row, t.vals[int(id)*t.nGroup:int(id+1)*t.nGroup]...)
	for a := range t.cols {
		c := &t.cols[a]
		switch c.fn {
		case algebra.AggCount:
			row = append(row, types.NewInt(c.count[id]))
		case algebra.AggSum:
			switch {
			case c.count[id] == 0:
				row = append(row, types.Null())
			case c.isFloat[id]:
				row = append(row, types.NewFloat(c.sumF[id]))
			default:
				row = append(row, types.NewInt(c.sumI[id]))
			}
		case algebra.AggAvg:
			if c.count[id] == 0 {
				row = append(row, types.Null())
			} else {
				row = append(row, types.NewFloat(c.sumF[id]/float64(c.count[id])))
			}
		default:
			row = append(row, c.ext[id])
		}
	}
	return row
}

// results renders every group in id (= first-seen) order into freshly
// allocated rows. global applies the empty-input rule: a global aggregate
// (no GROUP BY) over an empty input still emits one row.
func (t *aggTable) results(global bool) [][]types.Value {
	if global && t.len() == 0 {
		t.add("", nil)
	}
	w := t.nGroup + len(t.cols)
	slab := make([]types.Value, 0, t.len()*w)
	out := make([][]types.Value, t.len())
	for id := range out {
		slab = t.appendResult(slab, int32(id))
		out[id] = slab[id*w : (id+1)*w : (id+1)*w]
	}
	return out
}
