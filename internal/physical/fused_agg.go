package physical

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
	"repro/internal/vector"
)

// Fused aggregation: the Options.Fuse lowering extends past the first
// pipeline breaker, collapsing a maximal Scan→Filter→Project→Aggregate chain
// over a columnar table into one operator that folds group states straight
// off the source vectors. Per window the composed predicates select (range
// form or selection-vector form, exactly like FusedPipeline), the group-key
// and argument expressions evaluate unboxed, keys are encoded with the
// per-vector-type AppendElemKey fast paths, and the numeric aggregates
// accumulate into unboxed int64/float64 state — no intermediate batch, no
// boxed argument cell, and only one boxed representative row per distinct
// group.
//
// Fusion remains an execution strategy, never a semantics change. The fold
// is the unfused one — the same aggFolder group assignment and the same
// aggTable.absorbCol arms every aggregate operator uses — so NULL, COUNT,
// SUM/AVG addition order and MIN/MAX Compare semantics cannot drift between
// the two. Group output order is the engine-wide first-seen order: the
// serial operator folds one whole-table window; the parallel one merges
// per-morsel partials in morsel sequence order via mergeSeqPartials, like
// ParallelHashAggregate.
// Under a memory governor fused aggregation declines and the governed
// (spilling) HashAggregate runs instead, exactly like the fused probe.

// fusedAggChain is a recognized Scan→Filter→Project→Aggregate chain: the
// underlying fusedChain with the aggregate's group-by keys and arguments
// composed down to expressions over the scan schema.
type fusedAggChain struct {
	table   string
	rows    [][]types.Value
	cols    *vector.Columns
	preds   []algebra.Expr
	groupBy []algebra.Expr // composed; empty for a global aggregate
	args    []algebra.Expr // composed per aggregate; nil for COUNT(*)
	aggs    []algebra.AggSpec
	ops     []string
	schema  types.Schema // output: group names then aggregate names
	nGroup  int
}

// fusedAggFor recognizes a fusable aggregate rooted at node: a fusable
// Scan→Filter→Project chain below, columnar kernels for every composed
// predicate, group key, and aggregate argument. ok is false — with no error
// — when the shape or kernels don't allow fusion; validation errors are the
// ones serial lowering would report. There is no worth gate: even a bare
// scan-aggregate saves the boxed batch stream and the per-row argument
// boxing, so a recognized chain always fuses.
func fusedAggFor(node *algebra.Aggregate, src Source) (*fusedAggChain, bool, error) {
	fc, ok, err := fuseChainFor(node.Input, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if err := checkAggregate(node, len(fc.projs)); err != nil {
		return nil, false, err
	}
	for _, p := range fc.preds {
		if !algebra.Compile(p).CanSelectVec() {
			return nil, false, nil
		}
	}
	groupBy := make([]algebra.Expr, len(node.GroupBy))
	for i, e := range node.GroupBy {
		groupBy[i] = substCols(e, fc.projs)
		if !algebra.Compile(groupBy[i]).CanEvalVec() {
			return nil, false, nil
		}
	}
	args := make([]algebra.Expr, len(node.Aggs))
	for i, a := range node.Aggs {
		if a.Star {
			continue
		}
		args[i] = substCols(a.Arg, fc.projs)
		if !algebra.Compile(args[i]).CanEvalVec() {
			return nil, false, nil
		}
	}
	attrs := append([]string{}, node.GroupNames...)
	for _, a := range node.Aggs {
		attrs = append(attrs, a.Name)
	}
	return &fusedAggChain{
		table: fc.table, rows: fc.rows, cols: fc.cols,
		preds: fc.preds, groupBy: groupBy, args: args, aggs: node.Aggs,
		ops:    append(fc.ops[:len(fc.ops):len(fc.ops)], "aggregate"),
		schema: types.Schema{Attrs: attrs},
		nGroup: len(node.GroupBy),
	}, true, nil
}

// selectWindow mirrors FusedPipeline.selectWindow over the folder's own
// scratch: per-predicate unboxed selection, ascending intersection.
func (f *aggFolder) selectWindow(cols []vector.Vector, n int) []int {
	sel, _ := f.predProgs[0].SelectTruthyVec(cols, n, f.sel[:0])
	for _, prog := range f.predProgs[1:] {
		if len(sel) == 0 {
			break
		}
		s2, _ := prog.SelectTruthyVec(cols, n, f.sel2[:0])
		f.sel2 = s2
		sel = intersectAsc(sel, s2)
	}
	f.sel = sel
	return sel
}

// sliceVecs is a zero-copy sub-window of an already-sliced column window
// (Columns.Slice for plain []vector.Vector).
func sliceVecs(cols []vector.Vector, lo, hi int) []vector.Vector {
	out := make([]vector.Vector, len(cols))
	for j, v := range cols {
		out[j] = v.Slice(lo, hi)
	}
	return out
}

// foldWindow absorbs one column window into t. The selection logic is
// FusedPipeline's: range form when every predicate resolves to a
// contiguous row range (ascending columns, binary search), otherwise
// selection vectors with dense-run degeneration. The selected rows are
// then assigned their groups and every aggregate absorbed column-at-a-time,
// exactly as fold does for a batch.
func (f *aggFolder) foldWindow(cols []vector.Vector, n int, t *aggTable) {
	if n == 0 {
		return
	}
	lo, hi, ranged := 0, n, true
	for _, prog := range f.predProgs {
		plo, phi, ok := prog.SelectRangeVec(cols, n)
		if !ok {
			ranged = false
			break
		}
		lo, hi = max(lo, plo), min(hi, phi)
	}
	var sel []int
	if !ranged {
		f.sel = f.sel[:0]
		if len(f.predProgs) > 1 {
			f.sel2 = f.sel2[:0]
		}
		sel = f.selectWindow(cols, n)
		if len(sel) == 0 {
			return
		}
		if first := sel[0]; sel[len(sel)-1]-first == len(sel)-1 {
			lo, hi, ranged = first, first+len(sel), true
			sel = nil
		}
	} else if lo >= hi {
		return
	}
	win, m := cols, n
	count := len(sel)
	if ranged {
		if lo != 0 || hi != n {
			win, m = sliceVecs(cols, lo, hi), hi-lo
		}
		count = m
	}
	// In range form the kernels evaluate dense over the sub-window and rows
	// index it directly (sel == nil); in selection form they evaluate over
	// the whole window and rows index through sel.
	for g, prog := range f.groupProgs {
		f.keyVecs[g], _ = prog.EvalVec(win, m)
	}
	f.absorb(t, f.assign(t, count, sel), sel, func(_ int, prog *algebra.Compiled) vector.Vector {
		v, _ := prog.EvalVec(win, m)
		return v
	})
}

// FusedAggregate is the serial fused aggregate: the whole chain — scan,
// filters, projections, grouping, accumulation — runs as one fold over the
// resolved table's column vectors at Open, and Next streams the rendered
// group rows exactly like HashAggregate.
type FusedAggregate struct {
	Table   string
	GroupBy []algebra.Expr // composed over the scan schema
	Aggs    []algebra.AggSpec
	Preds   []algebra.Expr // composed over the scan schema
	Ops     []string       // collapsed chain, scan first — Explain renders this

	full   *vector.Columns
	args   []algebra.Expr
	schema types.Schema
	nGroup int

	folder *aggFolder
	out    [][]types.Value
	pos    int
	b      Batch
}

// Schema implements Operator.
func (h *FusedAggregate) Schema() types.Schema { return h.schema }

// Open implements Operator: fold the single whole-table window and render
// the groups. Kernels compile on the first Open and are memoized.
func (h *FusedAggregate) Open() error {
	h.out, h.pos = nil, 0
	if h.folder == nil {
		h.folder = newAggFolder(h.Preds, h.GroupBy, h.args)
	}
	t := newAggTable(h.nGroup, h.Aggs)
	h.folder.foldWindow(h.full.Vecs, h.full.N, t)
	h.out = t.results(h.nGroup == 0)
	return nil
}

// RowCountHint implements RowCountHinter: after Open the groups are
// materialized, so the count is exact.
func (h *FusedAggregate) RowCountHint() (int, bool) { return len(h.out) - h.pos, true }

// Next implements Operator.
func (h *FusedAggregate) Next() (*Batch, error) {
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

// Close implements Operator. A fused aggregate has no input operator; only
// the materialized output is released.
func (h *FusedAggregate) Close() error {
	h.out = nil
	return nil
}

// ParallelFusedAggregate is the morsel-parallel fused aggregate: DOP workers
// claim morsels straight off the shared source — folding is pure compute, so
// there is no per-worker operator pipeline at all — fold each morsel's
// column window into a private partial-state map with their own folder, and
// Open merges the per-morsel partials in morsel sequence order
// (mergeSeqPartials), which keeps the result a pure function of the input
// and the group order the serial engine's first-seen order, exactly like
// ParallelHashAggregate.
type ParallelFusedAggregate struct {
	Table   string
	GroupBy []algebra.Expr
	Aggs    []algebra.AggSpec
	Preds   []algebra.Expr
	Ops     []string

	args   []algebra.Expr
	schema types.Schema
	nGroup int
	dop    int
	src    *morselSource

	out [][]types.Value
	pos int
	b   Batch
}

// Schema implements Operator.
func (h *ParallelFusedAggregate) Schema() types.Schema { return h.schema }

// DOP reports the aggregate's worker count.
func (h *ParallelFusedAggregate) DOP() int { return h.dop }

// Open implements Operator: fan out, fold, merge in sequence order. Workers
// send one packet per claimed morsel; folding cannot fail, so there is no
// error path out of the workers.
func (h *ParallelFusedAggregate) Open() error {
	h.out, h.pos = nil, 0
	h.src.reset()
	ch := make(chan aggPacket, 2*h.dop)
	var wg sync.WaitGroup
	for i := 0; i < h.dop; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			folder := newAggFolder(h.Preds, h.GroupBy, h.args)
			for {
				seq, lo, hi, ok := h.src.claim()
				if !ok {
					return
				}
				t := newAggTable(h.nGroup, h.Aggs)
				folder.foldWindow(h.src.cols.Slice(lo, hi), hi-lo, t)
				ch <- aggPacket{seq: seq, t: t}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	bySeq := make(map[int]*aggTable)
	for p := range ch {
		bySeq[p.seq] = p.t
	}
	h.out = mergeSeqPartials(bySeq, h.src.nMorsels(), h.nGroup, h.Aggs).results(h.nGroup == 0)
	return nil
}

// RowCountHint implements RowCountHinter: after Open the groups are
// materialized, so the count is exact.
func (h *ParallelFusedAggregate) RowCountHint() (int, bool) { return len(h.out) - h.pos, true }

// Next implements Operator.
func (h *ParallelFusedAggregate) Next() (*Batch, error) {
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

// Close implements Operator.
func (h *ParallelFusedAggregate) Close() error {
	h.out = nil
	return nil
}

// lowerFusedAggregate lowers a fusable aggregate to the serial
// FusedAggregate. ok is false when the chain doesn't fuse; the caller falls
// back to the unfused HashAggregate over whatever its input lowers to.
func lowerFusedAggregate(node *algebra.Aggregate, src Source) (Operator, bool, error) {
	fa, ok, err := fusedAggFor(node, src)
	if err != nil || !ok {
		return nil, false, err
	}
	return &FusedAggregate{
		Table: fa.table, GroupBy: fa.groupBy, Aggs: fa.aggs, Preds: fa.preds,
		Ops: fa.ops, full: fa.cols, args: fa.args,
		schema: fa.schema, nGroup: fa.nGroup,
	}, true, nil
}

// lowerParallelFusedAggregate is the parallel twin: a ParallelFusedAggregate
// over a shared morsel source, gated on the table being big enough to split.
// A too-small table declines here and the serial fused hook catches it.
func lowerParallelFusedAggregate(node *algebra.Aggregate, src Source, opt Options) (Operator, bool, error) {
	fa, ok, err := fusedAggFor(node, src)
	if err != nil || !ok {
		return nil, false, err
	}
	if len(fa.rows) < opt.MinParallelRows {
		return nil, false, nil
	}
	return &ParallelFusedAggregate{
		Table: fa.table, GroupBy: fa.groupBy, Aggs: fa.aggs, Preds: fa.preds,
		Ops: fa.ops, args: fa.args, schema: fa.schema, nGroup: fa.nGroup,
		dop: opt.DOP,
		src: &morselSource{rows: fa.rows, size: opt.MorselSize, cols: fa.cols},
	}, true, nil
}
