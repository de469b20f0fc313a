package physical

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// HashAggregate groups the input by the key expressions and computes the
// aggregate functions. Open folds the input batch by batch into one group
// table (aggTable) — group keys and aggregate arguments evaluate through
// the vector kernels whenever the batch has a columnar view, boxed over the
// row view otherwise, and groups are keyed with the shared canonical binary
// encoding (key.go) — then Next streams one row per group in first-seen
// order (a global aggregate over an empty input still emits one row).
// Output rows are freshly allocated, group-by columns first, aggregate
// columns after, and emitted in shared-spine batches slicing the
// materialized result.
//
// With a memory governor (Mem non-nil), the group table is bounded: its
// estimated size (aggTable.stateMemSize) is Forced as it grows, and
// whenever a folded batch pushes the tracked total over budget the whole
// table — a "generation" of partial states, tagged with their global
// first-seen sequence numbers — is spilled as typed column blocks to
// hash-partitioned temp files and the memory released. After the input is
// exhausted, each partition is re-aggregated on its own (partials for one
// group always land in one partition, so the exact aggTable.merge
// combination applies generation by generation, in input order),
// recursing with a re-salted hash if a partition alone still exceeds the
// budget. The final groups are ordered by their first-seen sequence
// numbers, which restores the in-memory operator's global first-seen
// output order. Only the materialized result rows — the operator's output,
// which Next hands to the consumer — live outside the budget, exactly as
// they do on the in-memory path.
type HashAggregate struct {
	Input      Operator
	GroupBy    []algebra.Expr
	GroupNames []string
	Aggs       []algebra.AggSpec
	Mem        *MemGovernor // nil: never spill (today's in-memory behavior)
	SpillDir   string       // temp dir for spilled partitions; "" means os.TempDir()
	schema     types.Schema

	out   [][]types.Value
	pos   int
	held  int64
	sp    *spillSet
	gens  int // generations the last Open spilled, the final flush included
	depth int // deepest partition merge of the last Open; 0 if it never spilled
	b     Batch
}

// NewHashAggregate builds a hash aggregate with the output schema of the
// logical Aggregate node it implements.
func NewHashAggregate(in Operator, groupBy []algebra.Expr, groupNames []string, aggs []algebra.AggSpec) *HashAggregate {
	attrs := append([]string{}, groupNames...)
	for _, a := range aggs {
		attrs = append(attrs, a.Name)
	}
	return &HashAggregate{Input: in, GroupBy: groupBy, GroupNames: groupNames,
		Aggs: aggs, schema: types.Schema{Attrs: attrs}}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() types.Schema { return h.schema }

// SpillStats reports how the last Open spilled: the partial-state
// generations written (the final flush included; 0 when the groups fit)
// and the deepest partition merge (1 without re-partitioning).
func (h *HashAggregate) SpillStats() (generations, depth int) { return h.gens, h.depth }

// aggArgs lists the aggregates' argument expressions, nil for COUNT(*).
func aggArgs(aggs []algebra.AggSpec) []algebra.Expr {
	args := make([]algebra.Expr, len(aggs))
	for i, a := range aggs {
		if !a.Star {
			args[i] = a.Arg
		}
	}
	return args
}

// aggFolder is the folding core shared by every aggregate operator: the
// compiled predicate (fused chains only), group-key and argument kernels,
// their reused evaluation scratch, and the assignment of rows to groups of
// an aggTable. One folder belongs to one goroutine — the kernels it
// compiles are closures with private scratch, so parallel workers each
// build their own.
type aggFolder struct {
	predProgs  []*algebra.Compiled
	groupProgs []*algebra.Compiled
	argProgs   []*algebra.Compiled // nil entries are COUNT(*)

	keyVecs   []vector.Vector
	boxed     []vector.ValueVector // row-view evaluation scratch: keys, then arguments
	groupVals []types.Value
	keyBuf    []byte
	slots     []int32 // row → its group id, in row (or selection) order
	sel, sel2 []int
}

func newAggFolder(preds, groupBy, args []algebra.Expr) *aggFolder {
	f := &aggFolder{
		predProgs:  algebra.CompileAll(preds),
		groupProgs: algebra.CompileAll(groupBy),
		argProgs:   make([]*algebra.Compiled, len(args)),
		keyVecs:    make([]vector.Vector, len(groupBy)),
		boxed:      make([]vector.ValueVector, len(groupBy)+len(args)),
		groupVals:  make([]types.Value, len(groupBy)),
	}
	for i, e := range args {
		if e != nil {
			f.argProgs[i] = algebra.Compile(e)
		}
	}
	return f
}

// fold absorbs one batch into t. Keys and arguments evaluate through the
// vector kernels whenever the batch has a columnar view; an expression
// without a kernel, or a row-only batch, evaluates boxed over the row view
// and folds through absorbCol's boxed arm.
func (f *aggFolder) fold(b *Batch, t *aggTable) {
	n := b.Len()
	if n == 0 {
		return
	}
	cols := b.Cols()
	for g, prog := range f.groupProgs {
		f.keyVecs[g] = f.eval(prog, &f.boxed[g], b, cols, n)
	}
	f.absorb(t, f.assign(t, n, nil), nil, func(a int, prog *algebra.Compiled) vector.Vector {
		return f.eval(prog, &f.boxed[len(f.groupProgs)+a], b, cols, n)
	})
}

// eval evaluates prog over the batch: unboxed when it can, else boxed
// into box.
func (f *aggFolder) eval(prog *algebra.Compiled, box *vector.ValueVector, b *Batch, cols []vector.Vector, n int) vector.Vector {
	if cols != nil {
		if v, ok := prog.EvalVec(cols, n); ok {
			return v
		}
	}
	box.Vals = prog.EvalColumn(b.Rows(), box.Vals[:0])
	return box
}

// assign maps the count evaluated rows — position sel[i], or i when sel is
// nil, of f.keyVecs — to their groups in t, creating groups first-seen.
func (f *aggFolder) assign(t *aggTable, count int, sel []int) []int32 {
	if cap(f.slots) < count {
		f.slots = make([]int32, count)
	}
	slots := f.slots[:count]
	if len(f.keyVecs) == 0 {
		// A global aggregate: every row belongs to the one group.
		if t.len() == 0 {
			t.add("", nil)
		}
		clear(slots)
		return slots
	}
	for i := range slots {
		pos := i
		if sel != nil {
			pos = sel[i]
		}
		f.keyBuf = appendVecRowKey(f.keyBuf[:0], f.keyVecs, pos)
		id, ok := t.find(f.keyBuf)
		if !ok {
			for g, kv := range f.keyVecs {
				f.groupVals[g] = kv.Value(pos)
			}
			id = t.add(string(f.keyBuf), f.groupVals)
		}
		slots[i] = id
	}
	return slots
}

// absorb folds every aggregate column-at-a-time into the assigned groups;
// eval yields aggregate a's argument column. Rows stay ascending within
// each aggregate, and aggregates are independent, so every group sees its
// arguments in row order — the serial addition order of float sums.
func (f *aggFolder) absorb(t *aggTable, slots []int32, sel []int, eval func(a int, prog *algebra.Compiled) vector.Vector) {
	for a, prog := range f.argProgs {
		if prog == nil {
			t.countRows(a, slots)
			continue
		}
		t.absorbCol(a, eval(a, prog), slots, sel)
	}
}

// Open implements Operator: it consumes the input and builds all groups.
func (h *HashAggregate) Open() error {
	h.out, h.pos, h.held, h.sp, h.gens, h.depth = nil, 0, 0, nil, 0, 0
	if err := h.Input.Open(); err != nil {
		return err
	}
	if h.Mem != nil {
		return h.openGoverned()
	}
	t := newAggTable(len(h.GroupBy), h.Aggs)
	folder := newAggFolder(nil, h.GroupBy, aggArgs(h.Aggs))
	for {
		b, err := h.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		folder.fold(b, t)
	}
	h.out = t.results(len(h.GroupBy) == 0)
	return nil
}

// SpillPartitions is the fan-out of the aggregate's (and grace join's)
// partition spilling: enough that one partition's share of a too-big table
// usually fits the budget after one split, small enough that partition
// writers and their buffers stay cheap. Exported because it bounds the
// governor's merge-phase slack: a spilling operator holds at most
// SpillPartitions+2 concurrent run cursors, each with one resident frame.
const SpillPartitions = 16

// maxSpillDepth bounds re-salted re-partitioning. Past this depth the data
// is pathological (e.g. a single group bigger than the budget, which no
// partitioning can split) and the partition proceeds over budget, tracked
// as forced slack.
const maxSpillDepth = 8

// seqRow is a rendered output row tagged with its first-seen sequence.
type seqRow struct {
	seq int64
	row []types.Value
}

// openGoverned is Open under a memory budget: generation spilling during
// the fold, partitioned re-aggregation after it.
func (h *HashAggregate) openGoverned() error {
	nGroup := len(h.GroupBy)
	folder := newAggFolder(nil, h.GroupBy, aggArgs(h.Aggs))
	t := newAggTable(nGroup, h.Aggs)
	var held int64    // t's charge
	var genBase int64 // first-seen sequence of t's group 0
	var gen *partialRouter
	release := func() {
		h.Mem.Release(held)
		h.held -= held
		held = 0
	}

	spillGen := func() error {
		// A cancelled query aborts before paying the eviction I/O; Close
		// releases the reservations and removes any spill files.
		if err := h.Mem.Err(); err != nil {
			return err
		}
		if gen == nil {
			h.sp = newFrameSpillSet(h.SpillDir, h.Mem)
			gen = newPartialRouter(h, 0)
		}
		base := genBase
		if err := gen.route(0, t.len(), t.keyOf, t.vals, t.cols,
			func(j int) int64 { return base + int64(j) }); err != nil {
			return err
		}
		genBase += int64(t.len())
		h.gens++
		t = newAggTable(nGroup, h.Aggs)
		release()
		return nil
	}

	for {
		b, err := h.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// The groups exist either way; Force tracks the table's growth and
		// the pressure check spills the generation if this batch pushed
		// the query over budget.
		folder.fold(b, t)
		if s := t.stateMemSize(); s > held {
			h.Mem.Force(s - held)
			h.held += s - held
			held = s
		}
		if h.Mem.Over() {
			if err := spillGen(); err != nil {
				return err
			}
		}
	}

	if gen == nil {
		// Never under pressure: exactly the in-memory result.
		h.out = t.results(nGroup == 0)
		release()
		return nil
	}

	// Flush the live generation too, so every group is on disk, then
	// re-aggregate partition by partition.
	if err := spillGen(); err != nil {
		return err
	}
	runs, err := gen.finish()
	if err != nil {
		return err
	}
	var results []seqRow
	for _, run := range runs {
		if err := h.mergePartition(run, 1, &results); err != nil {
			return err
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].seq < results[j].seq })
	if nGroup == 0 && len(results) == 0 {
		results = append(results, seqRow{row: newAggTable(0, h.Aggs).results(true)[0]})
	}
	h.out = make([][]types.Value, 0, len(results))
	for _, r := range results {
		h.out = append(h.out, r.row)
	}
	return nil
}

// mergePartition re-aggregates one partition file: partial states are
// merged by group key in file order (= generation order, so aggTable.merge
// combines them exactly as the parallel aggregate's sequence-ordered merge
// does), tracking each group's minimum first-seen sequence. If the
// partition alone exceeds the budget, its states — merged so far and
// still unread — are re-partitioned under a re-salted hash and merged
// recursively. Rendered rows are appended to out; every consumed temp file
// is removed eagerly.
func (h *HashAggregate) mergePartition(run *spill.Run, depth int, out *[]seqRow) error {
	rd, err := h.sp.open(run)
	if err != nil {
		return err
	}
	h.depth = max(h.depth, depth)
	pr := &partialReader{h: h, rd: rd}
	t := newAggTable(len(h.GroupBy), h.Aggs)
	var seqs []int64 // per group id: minimum first-seen sequence
	var held int64   // t's and seqs' charge
	var keyBuf []byte
	for {
		blk, err := pr.next()
		if err != nil {
			return err
		}
		if blk == nil {
			break
		}
		for i := 0; i < blk.n; i++ {
			keyBuf = appendRowKey(keyBuf[:0], blk.groupRow(i))
			if id, ok := t.find(keyBuf); ok {
				t.merge(id, blk.cols, i)
				seqs[id] = min(seqs[id], blk.seq[i])
				continue
			}
			id := t.add(string(keyBuf), blk.groupRow(i))
			t.merge(id, blk.cols, i)
			seqs = append(seqs, blk.seq[i])
			s := t.stateMemSize() + 8*int64(cap(seqs))
			if s <= held {
				continue
			}
			if !h.Mem.Reserve(s - held) {
				if depth < maxSpillDepth {
					return h.repartition(t, seqs, held, blk, i+1, pr, run, depth, out)
				}
				h.Mem.Force(s - held)
			}
			h.held += s - held
			held = s
		}
	}
	pr.close()
	if err := run.Remove(); err != nil {
		return err
	}
	for id, seq := range seqs {
		*out = append(*out, seqRow{seq: seq, row: t.appendResult(nil, int32(id))})
	}
	h.Mem.Release(held)
	h.held -= held
	return nil
}

// repartition splits an over-budget partition into sub-partitions under a
// re-salted hash: the states merged so far in t (released from memory,
// including the group whose growth tripped the budget), the rest of the
// current block from row from on, and the unread remainder of the run all
// spill to the sub-files, which are then merged recursively. A group's
// merged-so-far state is written before its remaining partials, so
// generation merge order is preserved.
func (h *HashAggregate) repartition(t *aggTable, seqs []int64, held int64, blk *partialBlock, from int,
	pr *partialReader, run *spill.Run, depth int, out *[]seqRow) error {
	r := newPartialRouter(h, uint64(depth))
	err := r.route(0, t.len(), t.keyOf, t.vals, t.cols, func(j int) int64 { return seqs[j] })
	h.Mem.Release(held)
	h.held -= held
	for err == nil && blk != nil {
		b := blk
		if err = r.route(from, b.n, func(j int, buf []byte) []byte { return appendRowKey(buf, b.groupRow(j)) },
			b.vals, b.cols, func(j int) int64 { return b.seq[j] }); err == nil {
			blk, err = pr.next()
			from = 0
		}
	}
	pr.close()
	if err != nil {
		return err
	}
	if err := run.Remove(); err != nil {
		return err
	}
	runs, err := r.finish()
	if err != nil {
		return err
	}
	for _, sub := range runs {
		if err := h.mergePartition(sub, depth+1, out); err != nil {
			return err
		}
	}
	return nil
}

// The spilled partial-state format. A generation (or a re-partitioned
// run) is written as blocks of at most spill.DefaultFrameRows groups, one
// spill frame each, every block a sequence of vector wire columns
// (vector.AppendVector):
//
//	seq          int64: the group's global first-seen sequence number
//	group values one column per GROUP BY expression, typed when the
//	             block's values share a kind, boxed otherwise
//	per aggregate, only the fields its function keeps:
//	  COUNT      count int64
//	  SUM        count int64, sumI int64, sumF float64, isFloat bool
//	  AVG        count int64, sumF float64
//	  MIN, MAX   extreme, typed or boxed like group values; NULL = unseen
//
// Floats travel as IEEE bits and integers as full int64s, so NaN payloads,
// ±0 and integers past 2^53 round-trip exactly. The canonical group key is
// not stored: readers re-derive it from the group values.

// partialBlock is one decoded block of partial states: the same aggCol
// layout as a group table, indexed by position in the block.
type partialBlock struct {
	n, nGroup int
	seq       []int64
	vals      []types.Value // nGroup per state
	cols      []aggCol
}

func (b *partialBlock) groupRow(i int) []types.Value {
	return b.vals[i*b.nGroup : (i+1)*b.nGroup]
}

// keyOf appends group j's canonical key to buf.
func (t *aggTable) keyOf(j int, buf []byte) []byte { return append(buf, t.keys[j]...) }

// appendPartials encodes states sel of (vals, cols) — nGroup group values
// per state, first-seen sequences from seqOf — as one block. The scratch
// slices are reused across blocks.
func (e *partialEncoder) appendPartials(buf []byte, vals []types.Value, cols []aggCol, sel []int,
	seqOf func(j int) int64) []byte {
	e.ints = e.ints[:0]
	for _, j := range sel {
		e.ints = append(e.ints, seqOf(j))
	}
	buf = vector.AppendVector(buf, &vector.Int64Vector{Vals: e.ints})
	if e.nGroup > 0 {
		e.rows = e.rows[:0]
		for _, j := range sel {
			e.rows = append(e.rows, vals[j*e.nGroup:(j+1)*e.nGroup])
		}
		for _, v := range vector.FromRows(e.rows, e.nGroup).Vecs {
			buf = vector.AppendVector(buf, v)
		}
	}
	for a := range cols {
		switch c := &cols[a]; c.fn {
		case algebra.AggCount:
			buf = e.appendInts(buf, c.count, sel)
		case algebra.AggSum:
			buf = e.appendInts(buf, c.count, sel)
			buf = e.appendInts(buf, c.sumI, sel)
			buf = e.appendFloats(buf, c.sumF, sel)
			e.bools = e.bools[:0]
			for _, j := range sel {
				e.bools = append(e.bools, c.isFloat[j])
			}
			buf = vector.AppendVector(buf, &vector.BoolVector{Vals: e.bools})
		case algebra.AggAvg:
			buf = e.appendInts(buf, c.count, sel)
			buf = e.appendFloats(buf, c.sumF, sel)
		default:
			e.rows = e.rows[:0]
			for _, j := range sel {
				e.rows = append(e.rows, c.ext[j:j+1])
			}
			buf = vector.AppendVector(buf, vector.FromRows(e.rows, 1).Vecs[0])
		}
	}
	return buf
}

func (e *partialEncoder) appendInts(buf []byte, src []int64, sel []int) []byte {
	e.ints = e.ints[:0]
	for _, j := range sel {
		e.ints = append(e.ints, src[j])
	}
	return vector.AppendVector(buf, &vector.Int64Vector{Vals: e.ints})
}

func (e *partialEncoder) appendFloats(buf []byte, src []float64, sel []int) []byte {
	e.floats = e.floats[:0]
	for _, j := range sel {
		e.floats = append(e.floats, src[j])
	}
	return vector.AppendVector(buf, &vector.Float64Vector{Vals: e.floats})
}

// partialEncoder holds appendPartials' gather scratch. Value columns are
// gathered as a row spine over the states' own storage, so FromRows infers
// their vector type without copying a value.
type partialEncoder struct {
	nGroup int
	ints   []int64
	floats []float64
	bools  []bool
	rows   [][]types.Value
}

var errCorruptPartial = fmt.Errorf("physical: corrupt spilled aggregate state")

// decodePartials decodes one block of n partial states written by
// appendPartials. Any column of the wrong type, or bytes left over, is a
// corrupt-state error.
func decodePartials(b []byte, n, nGroup int, aggs []algebra.AggSpec) (*partialBlock, error) {
	blk := &partialBlock{n: n, nGroup: nGroup, vals: make([]types.Value, n*nGroup), cols: newAggCols(aggs)}
	b, err := decodeField(b, n, &blk.seq)
	for g := 0; g < nGroup && err == nil; g++ {
		var v vector.Vector
		if v, b, err = vector.DecodeVector(b, n); err == nil {
			for i := 0; i < n; i++ {
				blk.vals[i*nGroup+g] = v.Value(i)
			}
		}
	}
	for a := range blk.cols {
		c := &blk.cols[a]
		switch c.fn {
		case algebra.AggCount:
			b, err = decodeFields(b, n, err, &c.count)
		case algebra.AggSum:
			b, err = decodeFields(b, n, err, &c.count, &c.sumI, &c.sumF, &c.isFloat)
		case algebra.AggAvg:
			b, err = decodeFields(b, n, err, &c.count, &c.sumF)
		default:
			var v vector.Vector
			if err == nil {
				v, b, err = vector.DecodeVector(b, n)
			}
			if err == nil {
				c.ext = make([]types.Value, n)
				for i := range c.ext {
					c.ext[i] = v.Value(i)
				}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptPartial, err)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptPartial, len(b))
	}
	return blk, nil
}

// decodeFields decodes one state column into each of dsts in turn, unless
// err is already set.
func decodeFields(b []byte, n int, err error, dsts ...any) ([]byte, error) {
	for _, dst := range dsts {
		if err != nil {
			return nil, err
		}
		b, err = decodeField(b, n, dst)
	}
	return b, err
}

// decodeField decodes one typed state column into dst, a *[]int64,
// *[]float64 or *[]bool; a column of another type is corrupt.
func decodeField(b []byte, n int, dst any) ([]byte, error) {
	v, rest, err := vector.DecodeVector(b, n)
	if err != nil {
		return nil, err
	}
	ok := false
	switch d := dst.(type) {
	case *[]int64:
		var tv *vector.Int64Vector
		if tv, ok = v.(*vector.Int64Vector); ok {
			*d = tv.Vals
		}
	case *[]float64:
		var tv *vector.Float64Vector
		if tv, ok = v.(*vector.Float64Vector); ok {
			*d = tv.Vals
		}
	case *[]bool:
		var tv *vector.BoolVector
		if tv, ok = v.(*vector.BoolVector); ok {
			*d = tv.Vals
		}
	}
	if !ok {
		return nil, fmt.Errorf("state column decoded as %T", v)
	}
	return rest, nil
}

// partialRouter writes partial states to SpillPartitions hash partitions
// of the aggregate's spill set, as typed blocks; salt re-salts the hash at
// each recursion depth. The buffer blocks are encoded in is charged to the
// governor until finish.
type partialRouter struct {
	h       *HashAggregate
	salt    uint64
	enc     partialEncoder
	parts   [SpillPartitions]*spill.Writer
	sel     [SpillPartitions][]int
	buf     []byte
	bufHeld int64
	keyBuf  []byte
}

func newPartialRouter(h *HashAggregate, salt uint64) *partialRouter {
	return &partialRouter{h: h, salt: salt, enc: partialEncoder{nGroup: len(h.GroupBy)}}
}

// route writes states lo..hi-1 of (vals, cols) to their partitions, in
// state order within each partition; keyOf yields state j's canonical key.
func (r *partialRouter) route(lo, hi int, keyOf func(j int, buf []byte) []byte, vals []types.Value,
	cols []aggCol, seqOf func(j int) int64) error {
	for p := range r.sel {
		r.sel[p] = r.sel[p][:0]
	}
	for j := lo; j < hi; j++ {
		r.keyBuf = keyOf(j, r.keyBuf[:0])
		p := keyHashSalted(r.keyBuf, r.salt) % SpillPartitions
		r.sel[p] = append(r.sel[p], j)
	}
	for p, sel := range r.sel {
		for len(sel) > 0 {
			if r.parts[p] == nil {
				w, err := r.h.sp.newWriter()
				if err != nil {
					return err
				}
				r.parts[p] = w
			}
			m := min(len(sel), spill.DefaultFrameRows)
			r.buf = r.enc.appendPartials(r.buf[:0], vals, cols, sel[:m], seqOf)
			if grown := int64(cap(r.buf)) - r.bufHeld; grown > 0 {
				r.h.Mem.Force(grown)
				r.h.held += grown
				r.bufHeld += grown
			}
			if err := r.parts[p].AppendFrame(m, r.buf); err != nil {
				return err
			}
			sel = sel[m:]
		}
	}
	return nil
}

// finish finishes every partition written to, in partition order, and
// drops the encoding buffer.
func (r *partialRouter) finish() ([]*spill.Run, error) {
	r.buf = nil
	r.h.Mem.Release(r.bufHeld)
	r.h.held -= r.bufHeld
	r.bufHeld = 0
	var runs []*spill.Run
	for _, w := range r.parts {
		if w == nil {
			continue
		}
		run, err := r.h.sp.finish(w)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// partialReader streams the decoded blocks of one partition run, charging
// the governor for the resident block (its frame payload and decoded
// columns) like a merge cursor's frame.
type partialReader struct {
	h    *HashAggregate
	rd   *spill.Reader
	held int64
}

// next returns the next block, or nil at the end of the run.
func (r *partialReader) next() (*partialBlock, error) {
	n, payload, err := r.rd.NextFrame()
	r.release()
	if err != nil || payload == nil {
		return nil, err
	}
	blk, err := decodePartials(payload, n, len(r.h.GroupBy), r.h.Aggs)
	if err != nil {
		return nil, err
	}
	r.held = int64(len(payload)) + 8*int64(n) + valueMemBytes*int64(len(blk.vals)) + colsMemSize(blk.cols)
	r.h.Mem.Force(r.held)
	r.h.held += r.held
	return blk, nil
}

func (r *partialReader) release() {
	r.h.Mem.Release(r.held)
	r.h.held -= r.held
	r.held = 0
}

func (r *partialReader) close() {
	r.rd.Close()
	r.release()
}

// RowCountHint implements RowCountHinter: after Open the groups are
// materialized, so the count is exact.
func (h *HashAggregate) RowCountHint() (int, bool) { return len(h.out) - h.pos, true }

// Next implements Operator.
func (h *HashAggregate) Next() (*Batch, error) {
	if h.pos >= len(h.out) {
		return nil, nil
	}
	end := h.pos + DefaultBatchSize
	if end > len(h.out) {
		end = len(h.out)
	}
	h.b.SetShared(h.out[h.pos:end])
	h.pos = end
	return &h.b, nil
}

// Close implements Operator: drop the result, release any reservation
// still held, and remove every spill file.
func (h *HashAggregate) Close() error {
	h.out = nil
	h.Mem.Release(h.held)
	h.held = 0
	cerr := h.sp.cleanup()
	h.sp = nil
	if err := h.Input.Close(); err != nil {
		return err
	}
	return cerr
}
