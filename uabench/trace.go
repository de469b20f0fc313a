package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/uadb"
	"repro/internal/vector"
)

// Span names: one per layer boundary the traced run crosses.
const (
	spanQuery  = "query" // root of one traced execution; its self time is the glue between layers
	spanParse  = "sql.parse"
	spanPlan   = "engine.plan"
	spanUA     = "rewrite.ua"
	spanAU     = "rewrite.au"
	spanOpt    = "physical.optimize"
	spanLower  = "physical.lower"
	spanExec   = "physical.exec"
	spanWire   = "wire" // root of one result's encode/decode round
	spanEncode = "server.colbin_encode"
	spanDecode = "server.colbin_decode"
	noParent   = -1
)

// span is one timed layer call. Spans of one execution share Query; Parent
// indexes the span that made the call.
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Mode   string `json:"mode"`
	Query  int    `json:"query"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	query int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent int, class, mode string) int {
	tr.spans = append(tr.spans, span{
		Name: name, Class: class, Mode: mode, Query: tr.query, Parent: parent,
		Start: int64(time.Since(tr.t0)),
	})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) { tr.spans[i].End = int64(time.Since(tr.t0)) }

// catalogs is what a traced execution plans and runs against.
type catalogs struct {
	enc     *engine.Catalog // UA-encoded tables: user columns plus __cert
	encLog  *engine.Catalog // enc with the certainty column stripped, for planning
	aenc    *engine.Catalog // AU-encoded tables (spine layout), may be nil
	aencLog *engine.Catalog // aenc collapsed to the logical schemas, for planning
	masks   map[string][]bool
	det     *engine.Catalog // the best-guess world
}

// newCatalogs derives the planning catalogs the frontend builds internally.
func newCatalogs(front *rewrite.Frontend, det *engine.Catalog, masks map[string][]bool) *catalogs {
	c := &catalogs{enc: front.Enc, encLog: engine.NewCatalog(), aenc: front.AEnc,
		aencLog: engine.NewCatalog(), masks: masks, det: det}
	for _, name := range front.Enc.Names() {
		s := front.Enc.Get(name).Schema
		attrs := s.Attrs
		if n := len(attrs); n > 0 && strings.EqualFold(attrs[n-1], uadb.UAttr) {
			attrs = attrs[:n-1]
		}
		c.encLog.Put(engine.NewTable(types.Schema{Name: s.Name, Attrs: attrs}))
	}
	for _, name := range front.AEnc.Names() {
		s := front.AEnc.Get(name).Schema
		k := (len(s.Attrs) - 2) / 3
		attrs := make([]string, k)
		for i := range attrs {
			attrs[i] = s.Attrs[3*i+1]
		}
		c.aencLog.PutAs(name, engine.NewTable(types.Schema{Name: name, Attrs: attrs}))
	}
	return c
}

// runLayers executes one statement through the public layer calls that
// rewrite.Frontend.Query and engine.Session.Execute make, one span per
// layer. mode is "ua", "au" or "det"; label is the mode the spans record.
// opt is completed the way
// Session.Execute completes it: a per-query governor from MemBudget unless
// one is given, bound to ctx.
func (tr *tracer) runLayers(ctx context.Context, c *catalogs, class, label, mode, text string, opt physical.Options) (*physical.Result, error) {
	root := tr.begin(spanQuery, noParent, class, label)
	defer tr.end(root)
	layer := func(name string, f func() error) error {
		s := tr.begin(name, root, class, label)
		err := f()
		tr.end(s)
		return err
	}
	planCat, execCat := c.det, c.det
	switch mode {
	case "ua":
		planCat, execCat = c.encLog, c.enc
	case "au":
		planCat, execCat = c.aencLog, c.aenc
	}
	var stmt *sql.SelectStmt
	if err := layer(spanParse, func() (err error) { stmt, err = sql.Parse(text); return err }); err != nil {
		return nil, err
	}
	var plan algebra.Node
	if err := layer(spanPlan, func() (err error) { plan, err = engine.NewPlanner(planCat).Plan(stmt); return err }); err != nil {
		return nil, err
	}
	switch mode {
	case "ua":
		if err := layer(spanUA, func() (err error) { plan, err = rewrite.RewriteUA(plan); return err }); err != nil {
			return nil, err
		}
	case "au":
		masks := func(table string) []bool { return c.masks[strings.ToLower(table)] }
		if err := layer(spanAU, func() (err error) { plan, err = rewrite.RewriteAttrBounds(plan, masks); return err }); err != nil {
			return nil, err
		}
	}
	if err := layer(spanOpt, func() error {
		ok, err := physical.Validate(plan)
		if err == nil && ok {
			plan = physical.Optimize(plan)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if opt.Gov == nil {
		opt.Gov = physical.NewMemGovernor(opt.MemBudget)
	}
	opt.Gov.Bind(ctx)
	var op physical.Operator
	if err := layer(spanLower, func() (err error) { op, err = physical.LowerOpts(plan, execCat, opt); return err }); err != nil {
		return nil, err
	}
	var res *physical.Result
	err := layer(spanExec, func() (err error) { res, err = physical.DrainColumnsContext(ctx, op); return err })
	return res, err
}

// wireRound encodes a result as colbin chunk frames and decodes them back,
// one span each, returning the decoded columns. Chunks are cut the way the
// server cuts them (wireChunkRows).
func (tr *tracer) wireRound(res *physical.Result, class, mode string) (*vector.Columns, error) {
	root := tr.begin(spanWire, noParent, class, mode)
	defer tr.end(root)
	n := res.NumRows()
	var vecs []vector.Vector
	if cols := res.Cols(); cols != nil {
		vecs = cols.Vecs
	} else {
		vecs = vector.FromRows(res.Rows(), res.Schema.Arity()).Vecs
	}
	s := tr.begin(spanEncode, root, class, mode)
	var frames [][]byte
	for lo, hi := 0, 0; lo < n; lo = hi {
		hi = lo + wireChunkRows(vecs, n, lo)
		window := make([]vector.Vector, len(vecs))
		for j, v := range vecs {
			window[j] = v.Slice(lo, hi)
		}
		frames = append(frames, server.EncodeColChunk(uint64(tr.query), uint64(len(frames)), window))
	}
	tr.end(s)
	s = tr.begin(spanDecode, root, class, mode)
	parts := make([][]vector.Vector, len(frames))
	rows := 0
	for i, f := range frames {
		_, _, nr, cols, err := server.DecodeColChunk(f)
		if err != nil {
			tr.end(s)
			return nil, err
		}
		parts[i] = cols
		rows += nr
	}
	tr.end(s)
	if len(parts) == 0 {
		return &vector.Columns{N: 0, Vecs: vecs}, nil
	}
	out := make([]vector.Vector, len(vecs))
	for j := range out {
		col := make([]vector.Vector, len(parts))
		for i := range parts {
			col[i] = parts[i][j]
		}
		out[j] = vector.Concat(col)
	}
	return &vector.Columns{N: rows, Vecs: out}, nil
}

// layerStats is the self time of every layer, summed per query class and
// mode, with the number of traced executions behind each sum.
type layerStats struct {
	self  map[string]map[string]float64 // "class/mode" -> span name -> self ms
	count map[string]int                // "class/mode" -> executions
	wall  map[string]float64            // "class/mode" -> summed root durations, ms
	wires int                           // encode/decode rounds
}

// modeOf extracts the mode from a "class/mode" key.
func modeOf(key string) string { return key[strings.LastIndexByte(key, '/')+1:] }

// selfTimes computes each span's self time — its duration minus the part
// its children cover — and sums them per class, mode and layer.
func (tr *tracer) selfTimes() layerStats {
	st := layerStats{self: map[string]map[string]float64{}, count: map[string]int{}, wall: map[string]float64{}}
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent != noParent {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range tr.spans {
		key := s.Class + "/" + s.Mode
		if st.self[key] == nil {
			st.self[key] = map[string]float64{}
		}
		st.self[key][s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		switch s.Name {
		case spanQuery:
			st.count[key]++
			st.wall[key] += float64(s.End-s.Start) / 1e6
		case spanWire:
			st.wires++
		}
	}
	return st
}

// perQuery is a layer's mean self time per execution over the given modes,
// in ms.
func (st layerStats) perQuery(layer string, modes ...string) float64 {
	total, n := 0.0, 0
	for key, m := range st.self {
		if slices.Contains(modes, modeOf(key)) {
			total += m[layer]
			n += st.count[key]
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// perWire is a wire layer's mean self time per encode/decode round, in ms.
func (st layerStats) perWire(layer string) float64 {
	if st.wires == 0 {
		return 0
	}
	total := 0.0
	for _, m := range st.self {
		total += m[layer]
	}
	return total / float64(st.wires)
}

// table renders the per-class split: one line per class and mode with every
// layer's mean self time and the residual against the traced latency.
func (st layerStats) table() []string {
	layers := []string{spanParse, spanPlan, spanUA, spanAU, spanOpt, spanLower, spanExec, spanEncode, spanDecode}
	keys := make([]string, 0, len(st.self))
	for k := range st.self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		n := st.count[k]
		if n == 0 {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "layers %-12s n=%-4d latency_ms=%.4f", k, n, st.wall[k]/float64(n))
		for _, l := range layers {
			if v, ok := st.self[k][l]; ok {
				fmt.Fprintf(&sb, " %s_ms=%.4f", l, v/float64(n))
			}
		}
		fmt.Fprintf(&sb, " residual_ms=%.4f", st.self[k][spanQuery]/float64(n))
		out = append(out, sb.String())
	}
	return out
}

// write stores the spans and the per-class split as JSON.
func (tr *tracer) write(path string, meta map[string]any) error {
	st := tr.selfTimes()
	doc := map[string]any{"meta": meta, "spans": tr.spans, "self_ms": st.self, "executions": st.count}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wireChunkRows is the row count of the chunk the server cuts at row lo:
// as many rows as fit server.WireChunkBytes, capped at server.WireChunkRows.
// Fixed-width columns cost 8 bytes a row (bools 1); string and boxed
// columns are walked row by row. It mirrors the server's unexported chunk
// cutter.
func wireChunkRows(cols []vector.Vector, n, lo int) int {
	fixed := 0
	var walked []vector.Vector
	for _, v := range cols {
		switch v.(type) {
		case *vector.Int64Vector, *vector.Float64Vector:
			fixed += 8
		case *vector.BoolVector:
			fixed++
		default:
			walked = append(walked, v)
		}
	}
	limit := min(n-lo, server.WireChunkRows)
	if len(walked) == 0 {
		if fixed == 0 {
			return limit
		}
		return max(1, min(limit, server.WireChunkBytes/fixed))
	}
	bytes := 0
	for i := 0; i < limit; i++ {
		bytes += fixed
		for _, v := range walked {
			bytes += 4 // string offset or boxed tag
			if sv, ok := v.(*vector.StringVector); ok {
				if !sv.Null(lo + i) {
					bytes += len(sv.Vals[lo+i])
				}
			} else if v.Kind() == types.KindNull { // boxed column
				if cell := v.Value(lo + i); cell.Kind() == types.KindString {
					bytes += len(cell.Str())
				} else {
					bytes += 9
				}
			}
		}
		if bytes >= server.WireChunkBytes {
			return i + 1
		}
	}
	return limit
}
