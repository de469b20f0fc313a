package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/uadb"
)

// The server-realdata workload: the Sec. 11.4 tables behind an in-process
// query server on loopback with a 256 MiB global budget, driven by two
// colbin connections at DOP 1. One UA session issues the real-query
// templates Q1–Q4; one attr_bounds session issues a longitude/latitude
// window over crime. Literals are drawn from the seed. Q5, a band join that
// runs as a nested loop, is left out: one execution would outweigh hundreds
// of the others.
const (
	rdRows        = 50000
	rdUncertainty = 0.05
	rdBudget      = 256 << 20
)

// rdClass is one query class: its session mode and literal generator.
type rdClass struct {
	name string
	mode string // "ua" or "au"
	gen  func(rng *rand.Rand) string
}

var rdIUCRs = []int{820, 486, 1320, 560, 610, 710}

// window draws a longitude/latitude box from a 4×4 grid inside the
// generated coordinate range (-87.75..-87.60, 41.85..41.95). The grid keeps
// the distinct statements per class at 16, so the in-process reference pass
// after the timed loop stays short.
func window(rng *rand.Rand, cols string) string {
	lon := -87.750 + 0.030*float64(rng.Intn(4))
	lat := 41.850 + 0.025*float64(rng.Intn(4))
	return fmt.Sprintf("SELECT %s FROM crime WHERE longitude BETWEEN %.3f AND %.3f AND latitude BETWEEN %.3f AND %.3f",
		cols, lon, lon+0.055, lat, lat+0.011)
}

var rdClasses = []rdClass{
	{"Q1", "ua", func(rng *rand.Rand) string {
		// Three of the six codes in ascending order: 20 distinct statements.
		p := rng.Perm(len(rdIUCRs))[:3]
		sort.Ints(p)
		return fmt.Sprintf(`SELECT id, case_number,
			CASE iucr WHEN 820 THEN 'Theft' WHEN 486 THEN 'Domestic Battery' WHEN 1320 THEN 'Criminal Damage' END AS crime_type
			FROM crime WHERE iucr = %d OR iucr = %d OR iucr = %d`, rdIUCRs[p[0]], rdIUCRs[p[1]], rdIUCRs[p[2]])
	}},
	{"Q2", "ua", func(rng *rand.Rand) string { return window(rng, "id, case_number, longitude, latitude") }},
	{"Q3", "ua", func(rng *rand.Rand) string {
		s := []string{"Open", "Completed", "Cancelled"}[rng.Intn(3)]
		return fmt.Sprintf("SELECT street_address, zip_code, status FROM graffiti WHERE status = '%s'", s)
	}},
	{"Q4", "ua", func(rng *rand.Rand) string {
		res := []string{"Pass", "Pass w/ Conditions", "Fail"}[rng.Intn(3)]
		risk := []string{"Risk 1 (High)", "Risk 2 (Medium)", "Risk 3 (Low)"}[rng.Intn(3)]
		return fmt.Sprintf("SELECT inspection_date, address, zip FROM foodinspections WHERE results = '%s' AND risk = '%s'", res, risk)
	}},
	{"window", "au", func(rng *rand.Rand) string { return window(rng, "id, longitude, latitude") }},
}

// rdWeights are the executions of each class per round (see README.md).
var rdWeights = []int{1, 2, 1, 2, 4}

type rdEnv struct {
	front  *rewrite.Frontend // the server's frontend
	ref    *rewrite.Frontend // in-process reference over the same catalogs, no plan cache
	det    *engine.Catalog
	masks  map[string][]bool
	srv    *server.Server
	served chan error
	uaConn *client.Client
	auConn *client.Client
}

// buildRD generates and encodes the tables, starts the server, opens both
// sessions and warms every class up once through them.
func buildRD(cfg config, spill string) (*rdEnv, error) {
	rt := datagen.GenerateRealTables(max(10, int(rdRows*cfg.scale)), rdUncertainty, cfg.seed)
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range rt.Tables() {
		uaDB.Put(uadb.FromXDB(x))
	}
	enc := rewrite.EncodeUADatabase(uaDB)
	crime, err := rewrite.EncodeAttrX(rt.Crime)
	if err != nil {
		return nil, err
	}
	env := &rdEnv{
		front: rewrite.NewFrontend(enc), ref: rewrite.NewFrontend(enc),
		det: rewrite.DetCatalog(uaDB), masks: map[string][]bool{"crime": crime.Mask},
	}
	env.front.PutAttrTable("crime", crime)
	env.ref.PutAttrTable("crime", crime)
	// Collect the dead generator output before the warm-up allocates, so the
	// set-up's memory peak does not depend on when the collector runs.
	runtime.GC()
	env.srv = server.New(server.Config{Front: env.front, GlobalBudget: rdBudget, SpillDir: spill})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.served = make(chan error, 1)
	go func() { env.served <- env.srv.Serve(ln) }()
	fail := func(err error) (*rdEnv, error) {
		env.close()
		return nil, err
	}
	one, yes := 1, true
	if env.uaConn, err = client.Dial(ln.Addr().String()); err != nil {
		return fail(err)
	}
	if err := env.uaConn.Set(server.SessionOpts{DOP: &one}); err != nil {
		return fail(err)
	}
	if env.auConn, err = client.Dial(ln.Addr().String()); err != nil {
		return fail(err)
	}
	if err := env.auConn.Set(server.SessionOpts{DOP: &one, AttrBounds: &yes}); err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, c := range rdClasses {
		if _, err := env.conn(c.mode).Query(c.gen(rng)); err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", c.name, err))
		}
	}
	return env, nil
}

func (env *rdEnv) conn(mode string) *client.Client {
	if mode == "au" {
		return env.auConn
	}
	return env.uaConn
}

// close ends both sessions, shuts the server down and waits for Serve to
// return.
func (env *rdEnv) close() {
	for _, c := range []*client.Client{env.uaConn, env.auConn} {
		if c != nil {
			c.Close()
		}
	}
	env.srv.Close()
	<-env.served
}

// rdRecord is one client execution awaiting its check.
type rdRecord struct {
	sql    string
	mode   string
	rows   int
	digest uint64
}

// issue runs one statement through a session and digests the columnar
// result it received; only the round trip is timed.
func issue(c *client.Client, text string) (rdRecord, time.Duration, error) {
	t0 := time.Now()
	res, err := c.Query(text)
	d := time.Since(t0)
	if err != nil {
		return rdRecord{}, d, err
	}
	cols := res.Columns()
	dig := digestCells(cols.N, len(res.Schema), func(i, j int) types.Value { return cols.Vecs[j].Value(i) })
	return rdRecord{sql: text, rows: cols.N, digest: dig}, d, nil
}

// rdItem is one planned execution.
type rdItem struct {
	class int
	sql   string
}

// plan draws one round's statements: classes in the seeded order, literals
// from the seed.
func planRound(rng *rand.Rand, round []int) []rdItem {
	items := make([]rdItem, len(round))
	for i, ci := range round {
		items[i] = rdItem{ci, rdClasses[ci].gen(rng)}
	}
	return items
}

// clientLoop runs whole rounds for the given time. In each round the two
// sessions work through their own share of the round concurrently, and
// the round ends when both are done.
func (env *rdEnv) clientLoop(rng *rand.Rand, seconds float64, out *result, lat *latencies) []rdRecord {
	var recs []rdRecord
	rounds(rng, rdWeights, seconds, func(round []int) {
		items := planRound(rng, round)
		type done struct {
			rec rdRecord
			ci  int
			d   time.Duration
			err error
		}
		results := [2][]done{}
		var wg sync.WaitGroup
		for s, mode := range []string{"ua", "au"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, it := range items {
					if rdClasses[it.class].mode != mode {
						continue
					}
					rec, d, err := issue(env.conn(mode), it.sql)
					rec.mode = mode
					results[s] = append(results[s], done{rec, it.class, d, err})
				}
			}()
		}
		wg.Wait()
		for _, rs := range results {
			for _, r := range rs {
				out.query(r.err)
				if r.err != nil {
					continue
				}
				lat.add(r.ci, r.d)
				recs = append(recs, r.rec)
			}
		}
	})
	return recs
}

// checkRecords computes the in-process reference of every distinct
// statement the sessions ran, pairing each with a deterministic run of the
// same SQL over the best-guess world (order alternating), and checks every
// received result against its reference bit for bit. It returns the summed
// UA/AU and det times of the reference pass and the share of columnar
// in-process results.
func (env *rdEnv) checkRecords(recs []rdRecord, out *result) (uaSum, detSum time.Duration, columnar float64) {
	ctx := context.Background()
	refs := map[string]answer{}
	bad := map[string]bool{}
	nCols := 0
	for _, r := range recs {
		if _, ok := refs[r.sql]; ok || bad[r.sql] {
			continue
		}
		var res, detRes *physical.Result
		var uaD, detD time.Duration
		var err, detErr error
		runRef := func() {
			res, uaD, err = timed(func() (*physical.Result, error) {
				return env.ref.Query(ctx, r.sql, rewrite.QueryOpts{DOP: 1, AttrBounds: r.mode == "au"})
			})
		}
		runDetRef := func() {
			detRes, detD, detErr = timed(func() (*physical.Result, error) {
				return runDet(ctx, env.det, r.sql, physical.Options{DOP: 1})
			})
		}
		alternate(len(refs), runRef, runDetRef)
		if err == nil {
			err = detErr
		}
		if err == nil && r.mode == "au" {
			err = checkAUBounds(res.Schema, res.Rows())
		} else if err == nil {
			err = checkUAMatchesDet(res.Schema, res.Rows(), detRes.Rows())
		}
		if err != nil {
			out.fail(fmt.Errorf("reference %q: %w", r.sql, err))
			bad[r.sql] = true
			continue
		}
		uaSum += uaD
		detSum += detD
		if res.Cols() != nil {
			nCols++
		}
		refs[r.sql] = answerOf(res)
	}
	for _, r := range recs {
		if bad[r.sql] {
			continue
		}
		if err := checkSame("colbin result of "+r.sql, r.rows, r.digest, refs[r.sql]); err != nil {
			out.fail(err)
		}
	}
	out.note("checked %d client results against %d distinct in-process references", len(recs), len(refs))
	return uaSum, detSum, float64(nCols) / float64(max(1, len(refs)))
}

func runRealData(cfg config, out *result) error {
	spill, err := spillDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	env, setupS, err := setupRepeated(cfg.setups, func(bool) (*rdEnv, time.Duration, error) {
		env, err := buildRD(cfg, spill)
		return env, 0, err
	}, (*rdEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	heapLive := afterSetup(out)
	out.note("inputs fingerprint %s", fingerprint(env.front.Enc, env.front.AEnc))
	rng := rand.New(rand.NewSource(cfg.seed))
	statsBefore, err := env.uaConn.Stats()
	if err != nil {
		return err
	}
	before := readRuntime()
	var lat latencies
	loopSeconds := cfg.seconds
	if cfg.trace {
		loopSeconds /= 2
	}
	recs := env.clientLoop(rng, loopSeconds, out, &lat)
	after := readRuntime()
	statsAfter, err := env.uaConn.Stats()
	if err != nil {
		return err
	}
	names := make([]string, len(rdClasses))
	for i, c := range rdClasses {
		names[i] = c.name
	}
	lat.classNotes(out, "round trip", names, rdWeights)

	if !cfg.trace {
		uaSum, detSum, _ := env.checkRecords(recs, out)
		lat.report(out)
		out.set("ua_overhead_ratio", uaSum.Seconds()/detSum.Seconds(), "ratio")
		return finishEndToEnd(out, setupS)
	}

	lr := layerReport{heapLiveMB: heapLive}
	lr.runtimeDelta(before, after, len(lat.ms))
	hits := statsAfter.PlanHits - statsBefore.PlanHits
	lookups := hits + statsAfter.PlanMisses - statsBefore.PlanMisses
	lr.planHitRatio = float64(hits) / float64(max(1, lookups))
	admitted := statsAfter.Admitted - statsBefore.Admitted
	lr.queuedRatio = float64(statsAfter.Queued-statsBefore.Queued) / float64(max(1, admitted))
	lr.govPeakMB = float64(statsAfter.Peak) / (1 << 20)

	// The traced phase runs the same kind of rounds one statement at a
	// time: a client round trip, an untraced in-process Frontend.Query and
	// a traced execution through the layers, each checked.
	ctx := context.Background()
	tr := newTracer()
	cats := newCatalogs(env.ref, env.det, env.masks)
	var overhead, inProc []float64
	rounds(rng, rdWeights, cfg.seconds/2, func(round []int) {
		for _, it := range planRound(rng, round) {
			c := rdClasses[it.class]
			rec, clientD, err := issue(env.conn(c.mode), it.sql)
			out.query(err)
			if err != nil {
				continue
			}
			rec.mode = c.mode
			recs = append(recs, rec)
			res, inD, err := timed(func() (*physical.Result, error) {
				return env.ref.Query(ctx, it.sql, rewrite.QueryOpts{DOP: 1, AttrBounds: c.mode == "au"})
			})
			out.query(err)
			if err != nil {
				continue
			}
			overhead = append(overhead, ms(clientD-inD))
			inProc = append(inProc, ms(inD))
			tr.query++
			traced, err := tr.runLayers(ctx, cats, c.name, c.mode, c.mode, it.sql, physical.Options{DOP: 1})
			out.query(err)
			if err != nil {
				continue
			}
			cols, err := tr.wireRound(traced, c.name, c.mode)
			if err == nil {
				err = checkSame("traced "+c.name, cols.N, digestResult(physical.NewColumnarResult(traced.Schema, cols)), answerOf(res))
			}
			if err != nil {
				out.fail(err)
			}
		}
	})
	lr.serverOverhead = mean(overhead)
	lr.untracedMS = mean(inProc)
	_, _, lr.columnarRatio = env.checkRecords(recs, out)
	return reportLayers(cfg, out, tr, lr)
}
