package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/sql"
)

// layerReport holds the per-layer numbers that do not come from spans.
type layerReport struct {
	columnarRatio  float64 // results that came back columnar ÷ results
	govPeakMB      float64 // largest governor high-water mark
	planHitRatio   float64 // plan-cache hits ÷ lookups
	serverOverhead float64 // client round trip − in-process Frontend.Query, ms
	queuedRatio    float64 // admission waits ÷ admissions
	spillWriteMB   float64 // per budgeted query
	spillReadMB    float64 // per budgeted query
	spillSlowdown  float64 // budgeted ÷ unbudgeted execution time
	gcCPURatio     float64 // GC CPU ÷ total CPU over the untraced loop
	allocMBPerQ    float64 // heap allocation per execution over the untraced loop
	heapLiveMB     float64 // live heap right after set-up
	untracedMS     float64 // mean untraced in-process latency of the traced statements
}

// runtimeDelta turns two runtime samples around n executions into the GC
// share of CPU time and the allocation per execution.
func (lr *layerReport) runtimeDelta(before, after runtimeSample, n int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		lr.gcCPURatio = (after.gcCPU - before.gcCPU) / cpu
	}
	if n > 0 {
		lr.allocMBPerQ = (after.allocBytes - before.allocBytes) / float64(n) / (1 << 20)
	}
}

// reportLayers sets every per-layer metric from the traced run's spans and
// the counters in lr, and writes the spans out.
func reportLayers(cfg config, out *result, tr *tracer, lr layerReport) error {
	st := tr.selfTimes()
	us := func(layer string, modes ...string) float64 { return 1000 * st.perQuery(layer, modes...) }
	out.set("sql.parse_us", us(spanParse, "ua", "au"), "us")
	out.set("engine.plan_us", us(spanPlan, "ua", "au"), "us")
	out.set("rewrite.ua_us", us(spanUA, "ua"), "us")
	out.set("rewrite.au_us", us(spanAU, "au"), "us")
	out.set("physical.optimize_us", us(spanOpt, "ua", "au"), "us")
	out.set("physical.lower_us", us(spanLower, "ua", "au"), "us")
	out.set("physical.exec_ms", st.perQuery(spanExec, "ua", "au"), "ms")
	out.set("physical.exec_det_ms", st.perQuery(spanExec, "det"), "ms")
	out.set("server.colbin_encode_us", 1000*st.perWire(spanEncode), "us")
	out.set("server.colbin_decode_us", 1000*st.perWire(spanDecode), "us")
	out.set("physical.columnar_result_ratio", lr.columnarRatio, "ratio")
	out.set("physical.gov_peak_mb", lr.govPeakMB, "MB")
	out.set("rewrite.plancache_hit_ratio", lr.planHitRatio, "ratio")
	out.set("server.overhead_ms", lr.serverOverhead, "ms")
	out.set("server.admission_queued_ratio", lr.queuedRatio, "ratio")
	out.set("spill.write_mb", lr.spillWriteMB, "MB")
	out.set("spill.read_mb", lr.spillReadMB, "MB")
	out.set("spill.slowdown_ratio", lr.spillSlowdown, "ratio")
	out.set("runtime.gc_cpu_ratio", lr.gcCPURatio, "ratio")
	out.set("runtime.alloc_mb_per_query", lr.allocMBPerQ, "MB")
	out.set("runtime.heap_live_mb", lr.heapLiveMB, "MB")

	// Tracing overhead: the traced latency of the UA/AU statements against
	// their untraced in-process latency in the same run, i.e. untraced
	// queries_per_s ÷ traced queries_per_s.
	traced, n, residual := 0.0, 0, 0.0
	for key, c := range st.count {
		if mode := modeOf(key); mode == "ua" || mode == "au" {
			traced += st.wall[key]
			n += c
			residual += st.self[key][spanQuery]
		}
	}
	if n > 0 && lr.untracedMS > 0 {
		out.set("trace.overhead_ratio", traced/float64(n)/lr.untracedMS, "ratio")
		out.note("tracing overhead: traced %.3f ms vs untraced %.3f ms per UA/AU query (%.1f%%)",
			traced/float64(n), lr.untracedMS, 100*(traced/float64(n)/lr.untracedMS-1))
	} else {
		out.set("trace.overhead_ratio", 0, "ratio")
	}
	if traced > 0 {
		out.set("trace.residual_ratio", residual/traced, "ratio")
	} else {
		out.set("trace.residual_ratio", 0, "ratio")
	}
	for _, line := range st.table() {
		out.note("%s", line)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	out.note("trace written to %s", path)
	return tr.write(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "scale": cfg.scale})
}

// runDet runs a statement as a deterministic query: parse, plan against
// cat, execute through engine.Session.
func runDet(ctx context.Context, cat *engine.Catalog, text string, opt physical.Options) (*physical.Result, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	plan, err := engine.NewPlanner(cat).Plan(stmt)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(cat, opt).Execute(ctx, plan)
}

// timed runs f and reports its wall time.
func timed[T any](f func() (T, error)) (T, time.Duration, error) {
	t0 := time.Now()
	v, err := f()
	return v, time.Since(t0), err
}
