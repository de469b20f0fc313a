package physical

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/types"
)

// aggPacket carries one morsel's partial aggregation — a group table in
// the morsel's first-seen order — from a worker to the merging Open. Like
// morselPacket, ownership transfers with the send.
type aggPacket struct {
	seq int
	t   *aggTable
	err error
}

// aggWorker is one worker of a ParallelHashAggregate: a morsel pipeline plus
// the claim-fold-send loop.
type aggWorker struct {
	scan *MorselScan
	pipe Operator
}

// ParallelHashAggregate is the partitioned-aggregation variant of
// HashAggregate: DOP workers each run their own morsel pipeline and fold
// every morsel into a private partial-state map (per-worker kernels,
// per-worker scratch), and Open merges the per-morsel partials in morsel
// sequence order. Merging in sequence order makes the result a pure function
// of the input — independent of worker count and scheduling — and keeps the
// group output in the serial engine's first-seen order: a group's position is
// decided by the first morsel (in table order) that contains it. Integer
// aggregates merge exactly; float SUM/AVG re-associate addition (see
// aggTable.merge). Next then streams the materialized rows exactly like the
// serial operator.
type ParallelHashAggregate struct {
	GroupBy    []algebra.Expr
	GroupNames []string
	Aggs       []algebra.AggSpec

	schema  types.Schema
	workers []*aggWorker
	src     *morselSource

	out [][]types.Value
	pos int
	b   Batch
}

// Schema implements Operator.
func (h *ParallelHashAggregate) Schema() types.Schema { return h.schema }

// DOP reports the aggregate's worker count.
func (h *ParallelHashAggregate) DOP() int { return len(h.workers) }

// run executes one worker: open the pipeline, fold each claimed morsel into
// a fresh partial map, send the tagged partials, close the pipeline. Every
// claimed morsel sends exactly one packet; failures send an error packet.
// The merging Open always receives until the channel closes, so sends never
// need a quit path.
func (w *aggWorker) run(h *ParallelHashAggregate, out chan<- aggPacket) {
	err := w.loop(h, out)
	if cerr := w.pipe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		out <- aggPacket{seq: -1, err: err}
	}
}

func (w *aggWorker) loop(h *ParallelHashAggregate, out chan<- aggPacket) error {
	if err := w.pipe.Open(); err != nil {
		return err
	}
	folder := newAggFolder(nil, h.GroupBy, aggArgs(h.Aggs))
	for {
		seq, ok := w.scan.advance()
		if !ok {
			return nil
		}
		t := newAggTable(len(h.GroupBy), h.Aggs)
		for {
			b, err := w.pipe.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			folder.fold(b, t)
		}
		out <- aggPacket{seq: seq, t: t}
	}
}

// Open implements Operator: it runs the full parallel aggregation to
// completion — fan out workers, collect every morsel's partials, merge in
// sequence order — and materializes the output rows.
func (h *ParallelHashAggregate) Open() error {
	h.out, h.pos = nil, 0
	h.src.reset()
	ch := make(chan aggPacket, 2*len(h.workers))
	var wg sync.WaitGroup
	for _, w := range h.workers {
		wg.Add(1)
		go func(w *aggWorker) {
			defer wg.Done()
			w.run(h, ch)
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	bySeq := make(map[int]*aggTable)
	var firstErr error
	for p := range ch {
		if p.err != nil {
			if firstErr == nil {
				firstErr = p.err
			}
			continue
		}
		bySeq[p.seq] = p.t
	}
	if firstErr != nil {
		return firstErr
	}
	nGroup := len(h.GroupBy)
	h.out = mergeSeqPartials(bySeq, h.src.nMorsels(), nGroup, h.Aggs).results(nGroup == 0)
	return nil
}

// mergeSeqPartials merges per-morsel partial states in morsel sequence
// order — the step that makes parallel aggregation a pure function of the
// input and restores the serial engine's global first-seen group order: a
// group's position is decided by the first morsel (in table order) that
// contains it. Shared by ParallelHashAggregate and ParallelFusedAggregate.
func mergeSeqPartials(bySeq map[int]*aggTable, nMorsels, nGroup int, aggs []algebra.AggSpec) *aggTable {
	global := newAggTable(nGroup, aggs)
	for seq := 0; seq < nMorsels; seq++ {
		if t := bySeq[seq]; t != nil {
			global.mergeTable(t)
		}
	}
	return global
}

// RowCountHint implements RowCountHinter: after Open the groups are
// materialized, so the count is exact.
func (h *ParallelHashAggregate) RowCountHint() (int, bool) { return len(h.out) - h.pos, true }

// Next implements Operator.
func (h *ParallelHashAggregate) Next() (*Batch, error) {
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

// Close implements Operator. Worker pipelines close themselves at the end of
// Open's fan-out, so only the materialized output is released here.
func (h *ParallelHashAggregate) Close() error {
	h.out = nil
	return nil
}
