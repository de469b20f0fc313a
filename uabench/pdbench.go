package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/uadb"
)

// The pdbench workload: PDBench Q1–Q3 (the paper's Sec. 11.1 experiment)
// through rewrite.Frontend.Query in UA mode, one client, no memory budget,
// DOP 1. Every UA execution is paired with the same SQL run as a
// deterministic query over the best-guess world; the order within a pair
// alternates.
const (
	pdSF          = 2.0 // 120k lineitems
	pdUncertainty = 0.02
)

// pdWeights are the executions of Q1, Q2 and Q3 per round. Sorted by UA
// latency the classes run Q3 < Q1 < Q2, so Q3 covers the lowest fifth of
// the samples, Q1 the middle three fifths and Q2 the top fifth: the p50
// rank (0.5) sits in the middle of Q1's range and the p90 rank (0.9) in the
// middle of Q2's, both 0.1 or more away from a step between classes.
var pdWeights = []int{6, 2, 2}

type pdEnv struct {
	front *rewrite.Frontend
	det   *engine.Catalog
	qs    []pdbench.Query
	ref   []answer // the warm-up UA answer of each class
	// raErrs are the classes whose warm-up UA answer disagreed with the RA
	// form evaluated over the UA database (only on a verified build).
	raErrs []error
}

var (
	pdUAOpts  = rewrite.QueryOpts{DOP: 1}
	pdDetOpts = physical.Options{DOP: 1}
)

// pdUADatabase generates the PDBench x-relations and turns them into a UA
// database.
func pdUADatabase(cfg config) *uadb.Database[int64] {
	w := pdbench.Generate(pdbench.Config{SF: pdSF * cfg.scale, Uncertainty: pdUncertainty, Seed: cfg.seed})
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range w.Tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	return uaDB
}

// buildPD generates and encodes the inputs and runs one warm-up pass of
// every class, which also builds the tables' lazy columnar mirrors. With
// verify set it also evaluates each query's RA form over the UA database
// with K-relation semantics and checks the warm-up UA answer against it,
// and returns the time those checks took. The generator's x-relations and
// the UA database are unreachable once it returns.
func buildPD(cfg config, verify bool) (*pdEnv, time.Duration, error) {
	uaDB := pdUADatabase(cfg)
	qs := pdbench.Queries()
	var checks time.Duration
	var direct []*uadb.Relation[int64]
	if verify {
		t0 := time.Now()
		for _, q := range qs {
			r, err := uadb.Eval(q.RA, uaDB)
			if err != nil {
				return nil, 0, fmt.Errorf("%s (RA): %w", q.Name, err)
			}
			direct = append(direct, r)
		}
		runtime.GC() // the evaluation's garbage, so the timed set-up does not pay for it
		checks += time.Since(t0)
	}
	env := &pdEnv{
		front: rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB)),
		det:   rewrite.DetCatalog(uaDB),
		qs:    qs,
	}
	// Collect the dead generator output before the warm-up allocates, so the
	// set-up's memory peak does not depend on when the collector runs.
	runtime.GC()
	ctx := context.Background()
	for i, q := range env.qs {
		res, err := env.front.Query(ctx, q.SQL, pdUAOpts)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", q.Name, err)
		}
		env.ref = append(env.ref, answerOf(res))
		if verify {
			t0 := time.Now()
			if err := checkUAMatchesRA(res.Schema, res.Rows(), direct[i]); err != nil {
				env.raErrs = append(env.raErrs, fmt.Errorf("%s: %w", q.Name, err))
			}
			checks += time.Since(t0)
		}
		if _, err := runDet(ctx, env.det, q.SQL, pdDetOpts); err != nil {
			return nil, 0, fmt.Errorf("%s (det): %w", q.Name, err)
		}
	}
	return env, checks, nil
}

// pdExec runs one execution of class ci in mode "ua" or "det".
type pdExec func(ci int, mode string) (*physical.Result, error)

// loop runs whole rounds for the given time, each UA execution paired
// with its deterministic twin, checks every pair and returns the UA and
// det latencies.
func (env *pdEnv) loop(rng *rand.Rand, seconds float64, out *result, exec pdExec) (ua, det latencies, columnar int) {
	pair := 0
	rounds(rng, pdWeights, seconds, func(round []int) {
		for _, ci := range round {
			var uaRes, detRes *physical.Result
			var uaErr, detErr error
			runUA := func() {
				var d time.Duration
				uaRes, d, uaErr = timed(func() (*physical.Result, error) { return exec(ci, "ua") })
				if uaErr == nil {
					ua.add(ci, d)
				}
			}
			runDet := func() {
				var d time.Duration
				detRes, d, detErr = timed(func() (*physical.Result, error) { return exec(ci, "det") })
				if detErr == nil {
					det.add(ci, d)
				}
			}
			alternate(pair, runUA, runDet)
			pair++
			out.query(uaErr)
			if uaErr != nil || detErr != nil {
				if detErr != nil {
					out.fail(detErr)
				}
				continue
			}
			if uaRes.Cols() != nil {
				columnar++
			}
			name := env.qs[ci].Name
			if err := checkSame(name+" UA", uaRes.NumRows(), digestResult(uaRes), env.ref[ci]); err != nil {
				out.fail(err)
			} else if err := checkUAMatchesDet(uaRes.Schema, uaRes.Rows(), detRes.Rows()); err != nil {
				out.fail(fmt.Errorf("%s: %w", name, err))
			}
		}
	})
	return ua, det, columnar
}

func runPDBench(cfg config, out *result) error {
	env, setupS, err := setupRepeated(cfg.setups, func(keep bool) (*pdEnv, time.Duration, error) {
		return buildPD(cfg, keep)
	}, func(*pdEnv) {})
	if err != nil {
		return err
	}
	for _, err := range env.raErrs {
		out.fail(err)
	}
	heapLive := afterSetup(out)
	out.note("inputs fingerprint %s", fingerprint(env.front.Enc, env.det))
	for ci, q := range env.qs {
		out.note("class %s: %d UA result rows", q.Name, env.ref[ci].rows)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	untraced := func(ci int, mode string) (*physical.Result, error) {
		if mode == "ua" {
			return env.front.Query(ctx, env.qs[ci].SQL, pdUAOpts)
		}
		return runDet(ctx, env.det, env.qs[ci].SQL, pdDetOpts)
	}
	if !cfg.trace {
		ua, det, _ := env.loop(rng, cfg.seconds, out, untraced)
		ua.classNotes(out, "UA", pdNames(env.qs), pdWeights)
		det.classNotes(out, "det", pdNames(env.qs), pdWeights)
		ua.report(out)
		out.set("ua_overhead_ratio", ua.sum.Seconds()/det.sum.Seconds(), "ratio")
		return finishEndToEnd(out, setupS)
	}

	lr := layerReport{heapLiveMB: heapLive}
	before := readRuntime()
	ua, det, columnar := env.loop(rng, cfg.seconds/2, out, untraced)
	lr.runtimeDelta(before, readRuntime(), len(ua.ms)+len(det.ms))
	lr.columnarRatio = float64(columnar) / float64(max(1, len(ua.ms)))
	lr.untracedMS = mean(ua.ms)

	tr := newTracer()
	cats := newCatalogs(env.front, env.det, nil)
	env.loop(rng, cfg.seconds/2, out, func(ci int, mode string) (*physical.Result, error) {
		tr.query++
		q := env.qs[ci]
		res, err := tr.runLayers(ctx, cats, q.Name, mode, mode, q.SQL, pdDetOpts)
		if err != nil || mode != "ua" {
			return res, err
		}
		cols, err := tr.wireRound(res, q.Name, mode)
		if err != nil {
			return nil, err
		}
		return physical.NewColumnarResult(res.Schema, cols), nil
	})
	return reportLayers(cfg, out, tr, lr)
}

func pdNames(qs []pdbench.Query) []string {
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.Name
	}
	return names
}
