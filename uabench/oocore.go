package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/kdb"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// The out-of-core workload: PDBench orders and lineitem at SF 2 (120k
// lineitems), one client at DOP 1, and a fresh 16 MiB governor per query
// with a spill directory per run, so sort, hash join and the AU aggregate
// write and read spill runs. (At SF 5 one run held a single round of five
// queries and its medians spread by 20% across seeds; see README.md.) Each UA/AU execution is paired with the same
// SQL run deterministically over the best-guess world under its own fresh
// governor; the order within a pair alternates.
const (
	oocSF          = 2.0
	oocUncertainty = 0.02
	oocBudget      = 16 << 20
)

type oocClass struct {
	name, mode, sql string
	// sums marks a class whose result holds float sums: the spilled
	// aggregate adds in another order than the in-memory one, so its sums
	// are compared up to rounding (see checkSameUpToSumOrder).
	sums bool
}

var oocClasses = []oocClass{
	{"sort", "ua", "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_discount, l_shipdate FROM lineitem ORDER BY l_extendedprice", false},
	{"join", "ua", "SELECT o.o_orderkey, o.o_orderdate, l.l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey", false},
	{"agg", "au", "SELECT l_orderkey, SUM(l_extendedprice) AS revenue, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey", true},
}

// oocWeights are the executions of sort, join and agg per round. Sorted by
// budgeted latency the classes run join < sort < agg, so a round sorts as
// J J S A A: the p50 rank (0.5) sits in the middle of the sort's share
// [0.4, 0.6] and the p90 rank inside the aggregate's share [0.6, 1], never
// on a step between classes. The sort, the class whose deterministic twin
// costs as much as itself, gets one slot, which keeps rounds short (≈5 s)
// and puts 20–25 timed queries in a 20 s run.
var oocWeights = []int{1, 2, 2}

type oocEnv struct {
	front   *rewrite.Frontend
	masks   map[string][]bool
	ref     []answer          // unbudgeted answer of each class, from the warm-up pass
	refRows [][][]types.Value // the unbudgeted rows of the classes with float sums
}

// buildOOC generates and encodes orders and lineitem and runs one
// unbudgeted warm-up pass of every class, whose answers are the references
// the spilled results are checked against. The deterministic twins run
// over the UA-encoded tables themselves: their rows are the best-guess
// world, and the twins never read the certainty column.
func buildOOC(cfg config) (*oocEnv, error) {
	w := pdbench.Generate(pdbench.Config{SF: oocSF * cfg.scale, Uncertainty: oocUncertainty, Seed: cfg.seed})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, name := range []string{"orders", "lineitem"} {
		uaDB.Put(uadb.FromXDB(w.Tables[name]))
	}
	li, err := rewrite.EncodeAttrX(w.Tables["lineitem"])
	if err != nil {
		return nil, err
	}
	env := &oocEnv{
		front: rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB)),
		masks: map[string][]bool{"lineitem": li.Mask},
	}
	env.front.PutAttrTable("lineitem", li)
	// Collect the dead generator output before the warm-up allocates, so the
	// set-up's memory peak does not depend on when the collector runs.
	runtime.GC()
	ctx := context.Background()
	for _, c := range oocClasses {
		res, err := env.front.Query(ctx, c.sql, rewrite.QueryOpts{DOP: 1, AttrBounds: c.mode == "au"})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if c.mode == "au" {
			if err := checkAUBounds(res.Schema, res.Rows()); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		env.ref = append(env.ref, answerOf(res))
		var rows [][]types.Value
		if c.sums {
			rows = res.Rows()
		}
		env.refRows = append(env.refRows, rows)
	}
	return env, nil
}

// oocStats accumulates the budgeted executions of a loop.
type oocStats struct {
	ua, det      latencies
	govPeak      int64
	rchar, wchar map[int]float64 // spill bytes read and written per class
	columnar     int
	floatDiffs   int // float cells that differ from the reference in their bits only
}

// loop runs whole rounds for the given time. exec runs one budgeted
// execution of class ci in mode "ua"/"au" or "det" under gov.
func (env *oocEnv) loop(rng *rand.Rand, seconds float64, spill string, out *result,
	exec func(ci int, mode string, gov *physical.MemGovernor) (*physical.Result, error)) oocStats {
	st := oocStats{rchar: map[int]float64{}, wchar: map[int]float64{}}
	pair := 0
	rounds(rng, oocWeights, seconds, func(round []int) {
		for _, ci := range round {
			c := oocClasses[ci]
			var res *physical.Result
			var err, detErr error
			runUA := func() {
				gov := physical.NewMemGovernor(oocBudget)
				r0, w0, ioErr := ioChars()
				var d time.Duration
				res, d, err = timed(func() (*physical.Result, error) { return exec(ci, c.mode, gov) })
				r1, w1, ioErr2 := ioChars()
				if err == nil && ioErr == nil && ioErr2 == nil {
					st.rchar[ci] += r1 - r0
					st.wchar[ci] += w1 - w0
				}
				if err == nil {
					st.ua.add(ci, d)
					st.govPeak = max(st.govPeak, gov.Peak())
					err = checkDirEmpty(spill)
				}
			}
			runDet := func() {
				var d time.Duration
				_, d, detErr = timed(func() (*physical.Result, error) {
					return exec(ci, "det", physical.NewMemGovernor(oocBudget))
				})
				if detErr == nil {
					st.det.add(ci, d)
					detErr = checkDirEmpty(spill)
				}
			}
			alternate(pair, runUA, runDet)
			pair++
			out.query(err)
			if detErr != nil {
				out.fail(fmt.Errorf("%s (det): %w", c.name, detErr))
			}
			if err != nil {
				continue
			}
			if res.Cols() != nil {
				st.columnar++
			}
			err = checkSame(c.name+" under the budget", res.NumRows(), digestResult(res), env.ref[ci])
			if err != nil && c.sums {
				var diffs int
				diffs, err = checkSameUpToSumOrder(res.Rows(), env.refRows[ci])
				st.floatDiffs += diffs
			}
			if err != nil {
				out.fail(fmt.Errorf("%s under the budget: %w", c.name, err))
			}
		}
	})
	return st
}

func runOutOfCore(cfg config, out *result) error {
	spill, err := spillDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	env, setupS, err := setupRepeated(cfg.setups, func(bool) (*oocEnv, time.Duration, error) {
		env, err := buildOOC(cfg)
		return env, 0, err
	}, func(*oocEnv) {})
	if err != nil {
		return err
	}
	heapLive := afterSetup(out)
	out.note("inputs fingerprint %s", fingerprint(env.front.Enc, env.front.AEnc))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	untraced := func(ci int, mode string, gov *physical.MemGovernor) (*physical.Result, error) {
		c := oocClasses[ci]
		if mode == "det" {
			return runDet(ctx, env.front.Enc, c.sql, physical.Options{DOP: 1, Gov: gov, SpillDir: spill})
		}
		return env.front.Query(ctx, c.sql, rewrite.QueryOpts{DOP: 1, Gov: gov, SpillDir: spill, AttrBounds: mode == "au"})
	}
	loopSeconds := cfg.seconds
	if cfg.trace {
		loopSeconds /= 2
	}
	before := readRuntime()
	st := env.loop(rng, loopSeconds, spill, out, untraced)
	after := readRuntime()
	names := make([]string, len(oocClasses))
	for ci, c := range oocClasses {
		names[ci] = c.name
		out.note("class %s (%s): %d result rows", c.name, c.mode, env.ref[ci].rows)
	}
	st.ua.classNotes(out, "budgeted", names, oocWeights)
	out.note("known defect: %d float cells of spilled results differ from the unbudgeted answer in their last bits (summation order)", st.floatDiffs)
	st.det.classNotes(out, "det", names, oocWeights)
	if !cfg.trace {
		st.ua.report(out)
		out.set("ua_overhead_ratio", st.ua.sum.Seconds()/st.det.sum.Seconds(), "ratio")
		return finishEndToEnd(out, setupS)
	}

	lr := layerReport{heapLiveMB: heapLive}
	lr.runtimeDelta(before, after, len(st.ua.ms)+len(st.det.ms))
	n := float64(max(1, len(st.ua.ms)))
	lr.columnarRatio = float64(st.columnar) / n
	lr.govPeakMB = float64(st.govPeak) / (1 << 20)
	for ci, c := range oocClasses {
		k := float64(max(1, len(st.ua.byClass[ci]))) * (1 << 20)
		out.note("class %s: spill written %.1f MB, read %.1f MB per budgeted execution", c.name, st.wchar[ci]/k, st.rchar[ci]/k)
		lr.spillWriteMB += st.wchar[ci] / n / (1 << 20)
		lr.spillReadMB += st.rchar[ci] / n / (1 << 20)
	}
	lr.untracedMS = mean(st.ua.ms)

	// The traced phase runs each budgeted execution through the layers,
	// plus the same statement without a budget, so the spill slowdown is
	// read off the same layer (physical.exec) on both sides.
	tr := newTracer()
	cats := newCatalogs(env.front, env.front.Enc, env.masks)
	env.loop(rng, cfg.seconds/2, spill, out, func(ci int, mode string, gov *physical.MemGovernor) (*physical.Result, error) {
		c := oocClasses[ci]
		tr.query++
		res, err := tr.runLayers(ctx, cats, c.name, mode, mode, c.sql, physical.Options{DOP: 1, Gov: gov, SpillDir: spill})
		if err != nil || mode == "det" {
			return res, err
		}
		tr.query++
		free, err := tr.runLayers(ctx, cats, c.name, mode+"-unbudgeted", mode, c.sql, physical.Options{DOP: 1})
		if err != nil {
			return nil, err
		}
		if err := checkSame(c.name+" traced without a budget", free.NumRows(), digestResult(free), env.ref[ci]); err != nil {
			out.fail(err)
		}
		cols, err := tr.wireRound(res, c.name, mode)
		if err != nil {
			return nil, err
		}
		return physical.NewColumnarResult(res.Schema, cols), nil
	})
	ls := tr.selfTimes()
	if free := ls.perQuery(spanExec, "ua-unbudgeted", "au-unbudgeted"); free > 0 {
		lr.spillSlowdown = ls.perQuery(spanExec, "ua", "au") / free
	}
	return reportLayers(cfg, out, tr, lr)
}
