package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pdbench"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/uadb"
	"repro/internal/vector"
)

// spec is the part of BENCHMARK.json the self-test checks output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricPrinted runs each workload at a tiny scale, end to end and
// traced, and checks that the JSON line carries exactly the metrics of
// BENCHMARK.json with their units, that each is also printed on its own
// line, and that every answer was correct.
func TestEveryMetricPrinted(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.05", "--trace", trace,
					"--scale", "0.01", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(stdout.String()) {
						t.Errorf("metric %s is not printed on its own line with its unit", m.Name)
					}
				}
			})
		}
	}
}

func cloneRows(rows [][]types.Value) [][]types.Value {
	out := make([][]types.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]types.Value(nil), r...)
	}
	return out
}

// TestCheckersRejectPerturbedAnswers takes real answers from tiny
// workloads and checks that the checks accept them as they are and reject
// them with one row dropped, one __cert flipped or one AU bound swapped.
func TestCheckersRejectPerturbedAnswers(t *testing.T) {
	uaDB := pdUADatabase(config{seed: 5, scale: 0.01})
	front, detCat := rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB)), rewrite.DetCatalog(uaDB)
	ctx := context.Background()
	q := pdbench.Queries()[0]
	uaRes, err := front.Query(ctx, q.SQL, pdUAOpts)
	if err != nil {
		t.Fatal(err)
	}
	detRes, err := runDet(ctx, detCat, q.SQL, pdDetOpts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := uadb.Eval(q.RA, uaDB)
	if err != nil {
		t.Fatal(err)
	}
	ua, det := cloneRows(uaRes.Rows()), detRes.Rows()
	if len(ua) < 2 {
		t.Fatalf("%s returned %d rows; the test needs two", q.Name, len(ua))
	}
	k := uaRes.Schema.Arity()
	ref := answer{rows: len(ua), digest: digestRows(ua, k)}
	exact := func(rows [][]types.Value) error {
		return checkSame("UA", len(rows), digestRows(rows, k), ref)
	}
	upToSums := func(rows [][]types.Value) error {
		_, err := checkSameUpToSumOrder(rows, ua)
		return err
	}

	for name, check := range map[string]func([][]types.Value) error{
		"UA vs det":  func(rows [][]types.Value) error { return checkUAMatchesDet(uaRes.Schema, rows, det) },
		"UA vs RA":   func(rows [][]types.Value) error { return checkUAMatchesRA(uaRes.Schema, rows, direct) },
		"exact":      exact,
		"up to sums": upToSums,
	} {
		if err := check(ua); err != nil {
			t.Errorf("%s rejects the true answer: %v", name, err)
		}
		if err := check(ua[1:]); err == nil {
			t.Errorf("%s accepts the answer with one row dropped", name)
		}
	}

	flipped := cloneRows(ua)
	if uadb.UAttr != uaRes.Schema.Attrs[k-1] {
		t.Fatalf("last column is %s", uaRes.Schema.Attrs[k-1])
	}
	flipped[0][k-1] = types.NewInt(1 - flipped[0][k-1].Int())
	if checkUAMatchesRA(uaRes.Schema, flipped, direct) == nil {
		t.Error("the RA check accepts a flipped __cert")
	}
	if exact(flipped) == nil {
		t.Error("the exact check accepts a flipped __cert")
	}
	if upToSums(flipped) == nil {
		t.Error("the up-to-sums check accepts a flipped __cert")
	}

	// AU: the out-of-core aggregate over range-uncertain prices.
	ooc, err := buildOOC(config{seed: 5, scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	agg := oocClasses[2]
	auRes, err := ooc.front.Query(ctx, agg.sql, rewrite.QueryOpts{DOP: 1, AttrBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	au := cloneRows(auRes.Rows())
	if err := checkAUBounds(auRes.Schema, au); err != nil {
		t.Fatalf("the bounds check rejects the true AU answer: %v", err)
	}
	swapped := cloneRows(au)
	found := false
	for _, row := range swapped {
		for i := 0; 3*i+2 < len(row)-2 && !found; i++ {
			if row[3*i].Compare(row[3*i+2]) < 0 {
				row[3*i], row[3*i+2] = row[3*i+2], row[3*i]
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no AU row has a range-uncertain attribute")
	}
	if checkAUBounds(auRes.Schema, swapped) == nil {
		t.Error("the bounds check accepts a swapped AU bound")
	}
	if _, err := checkSameUpToSumOrder(swapped, au); err == nil {
		t.Error("the up-to-sums check accepts a swapped AU bound")
	}
	auRef := answer{rows: len(au), digest: digestRows(au, auRes.Schema.Arity())}
	if checkSame("AU", len(swapped), digestRows(swapped, auRes.Schema.Arity()), auRef) == nil {
		t.Error("the exact check accepts a swapped AU bound")
	}

	// A float sum off by more than rounding is a wrong answer.
	off := cloneRows(au)
	for j, v := range off[0] {
		if v.Kind() == types.KindFloat {
			off[0][j] = types.NewFloat(v.Float()*1.001 + 1)
			break
		}
	}
	if _, err := checkSameUpToSumOrder(off, au); err == nil {
		t.Error("the up-to-sums check accepts a sum that is off by more than rounding")
	}
}

func TestSpillDirCheck(t *testing.T) {
	dir := t.TempDir()
	if err := checkDirEmpty(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "uadb-spill-1.run"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if checkDirEmpty(dir) == nil {
		t.Error("a leftover spill file passes the check")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestWireChunkRows checks that the traced wire round cuts chunks by the
// server's byte target as well as its row cap.
func TestWireChunkRows(t *testing.T) {
	n := 3 * server.WireChunkRows
	ints := vector.NewInt64Vector(make([]int64, n), nil)
	if got := wireChunkRows([]vector.Vector{ints}, n, 0); got != server.WireChunkRows {
		t.Errorf("one int column: chunk of %d rows, want the row cap %d", got, server.WireChunkRows)
	}
	wide := make([]vector.Vector, 6)
	for j := range wide {
		wide[j] = vector.NewFloat64Vector(make([]float64, n), nil)
	}
	if got, want := wireChunkRows(wide, n, 0), server.WireChunkBytes/48; got != want {
		t.Errorf("six float columns: chunk of %d rows, want %d", got, want)
	}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = strings.Repeat("x", 60)
	}
	if got, want := wireChunkRows([]vector.Vector{vector.NewStringVector(strs, nil)}, n, 0), server.WireChunkBytes/64; got != want {
		t.Errorf("one string column: chunk of %d rows, want %d", got, want)
	}
	if got := wireChunkRows([]vector.Vector{ints}, n, n-5); got != 5 {
		t.Errorf("tail chunk of %d rows, want 5", got)
	}
}
