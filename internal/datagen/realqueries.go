package datagen

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/models"
	"repro/internal/types"
)

// This file generates the domain-specific tables behind the paper's five
// "real queries" (Section 11.4): Chicago crime, graffiti-removal requests,
// and food inspections, with the columns those queries touch and value
// distributions that give them non-trivial selectivities. Uncertainty is
// injected with the same imputation model as the Figure 16 datasets.

func sval(s string) types.Value  { return types.NewString(s) }
func ival(v int64) types.Value   { return types.NewInt(v) }
func fval(v float64) types.Value { return types.NewFloat(v) }

// RealTables bundles the three tables used by the real queries.
type RealTables struct {
	Crime    *models.XRelation // id, case_number, iucr, district, longitude, latitude, x_coordinate, y_coordinate
	Graffiti *models.XRelation // street_address, zip_code, status, police_district, x_coordinate, y_coordinate, service_request_number, community_area
	FoodInsp *models.XRelation // inspection_date, address, zip, results, risk
}

// GenerateRealTables builds the three tables with nRows rows each and the
// given row-level uncertainty rate.
func GenerateRealTables(nRows int, uRow float64, seed int64) *RealTables {
	rng := rand.New(rand.NewSource(seed))
	rt := &RealTables{}

	iucrs := []int64{820, 486, 1320, 560, 610, 710}
	crimeSchema := types.NewSchema("crime",
		"id", "case_number", "iucr", "district", "longitude", "latitude", "x_coordinate", "y_coordinate")
	rt.Crime = models.NewXRelation(crimeSchema)
	for i := 0; i < nRows; i++ {
		row := types.Tuple{
			ival(int64(i + 1)),
			sval(fmt.Sprintf("HZ%06d", i)),
			ival(iucrs[rng.Intn(len(iucrs))]),
			sval(fmt.Sprintf("%03d", rng.Intn(12)+1)),
			fval(-87.60 - rng.Float64()*0.15),
			fval(41.85 + rng.Float64()*0.10),
			fval(float64(rng.Intn(10000)) + 1140000),
			fval(float64(rng.Intn(10000)) + 1890000),
		}
		// Uncertain cells: geocoding ambiguity on coordinates, IUCR typos.
		addUncertain(rt.Crime, row, map[int]func() types.Value{
			2: func() types.Value { return ival(iucrs[rng.Intn(len(iucrs))]) },
			4: func() types.Value { return fval(-87.60 - rng.Float64()*0.15) },
			5: func() types.Value { return fval(41.85 + rng.Float64()*0.10) },
			6: func() types.Value { return fval(float64(rng.Intn(10000)) + 1140000) },
			7: func() types.Value { return fval(float64(rng.Intn(10000)) + 1890000) },
		}, uRow, rng)
	}

	statuses := []string{"Open", "Completed", "Cancelled"}
	graffitiSchema := types.NewSchema("graffiti",
		"street_address", "zip_code", "status", "police_district",
		"x_coordinate", "y_coordinate", "service_request_number", "community_area")
	rt.Graffiti = models.NewXRelation(graffitiSchema)
	for i := 0; i < nRows; i++ {
		row := types.Tuple{
			sval(fmt.Sprintf("%d W Street", 100+i)),
			ival(int64(60601 + rng.Intn(60))),
			sval(statuses[rng.Intn(len(statuses))]),
			ival(int64(rng.Intn(12) + 1)),
			fval(float64(rng.Intn(10000)) + 1140000),
			fval(float64(rng.Intn(10000)) + 1890000),
			sval(fmt.Sprintf("SR%07d", i)),
			ival(int64(rng.Intn(77) + 1)),
		}
		addUncertain(rt.Graffiti, row, map[int]func() types.Value{
			1: func() types.Value { return ival(int64(60601 + rng.Intn(60))) },
			2: func() types.Value { return sval(statuses[rng.Intn(len(statuses))]) },
			4: func() types.Value { return fval(float64(rng.Intn(10000)) + 1140000) },
			5: func() types.Value { return fval(float64(rng.Intn(10000)) + 1890000) },
		}, uRow, rng)
	}

	results := []string{"Pass", "Pass w/ Conditions", "Fail"}
	risks := []string{"Risk 1 (High)", "Risk 2 (Medium)", "Risk 3 (Low)"}
	foodSchema := types.NewSchema("foodinspections",
		"inspection_date", "address", "zip", "results", "risk")
	rt.FoodInsp = models.NewXRelation(foodSchema)
	for i := 0; i < nRows; i++ {
		row := types.Tuple{
			ival(int64(rng.Intn(3650))),
			sval(fmt.Sprintf("%d N Ave", 10+i)),
			ival(int64(60601 + rng.Intn(60))),
			sval(results[rng.Intn(len(results))]),
			sval(risks[rng.Intn(len(risks))]),
		}
		addUncertain(rt.FoodInsp, row, map[int]func() types.Value{
			2: func() types.Value { return ival(int64(60601 + rng.Intn(60))) },
			3: func() types.Value { return sval(results[rng.Intn(len(results))]) },
			4: func() types.Value { return sval(risks[rng.Intn(len(risks))]) },
		}, uRow, rng)
	}
	return rt
}

// addUncertain turns the row into an x-tuple with imputation alternatives
// with probability uRow, redrawing a random subset of the mutable cells.
func addUncertain(rel *models.XRelation, row types.Tuple, gens map[int]func() types.Value, uRow float64, rng *rand.Rand) {
	if rng.Float64() >= uRow {
		rel.AddCertain(row)
		return
	}
	// Columns are listed and redrawn in ascending order, never in map
	// order, so a seed always draws the same numbers for the same cells.
	cols := make([]int, 0, len(gens))
	for c := range row {
		if _, ok := gens[c]; ok {
			cols = append(cols, c)
		}
	}
	// Choose 1-2 dirty cells deterministically from the rng.
	nDirty := rng.Intn(2) + 1
	var dirty []int
	for len(dirty) < nDirty {
		if c := cols[rng.Intn(len(cols))]; !slices.Contains(dirty, c) {
			dirty = append(dirty, c)
		}
	}
	slices.Sort(dirty)
	nAlts := rng.Intn(2) + 2
	alts := make([]models.Alternative, 0, nAlts)
	alts = append(alts, models.Alternative{Data: row, Prob: 1 / float64(nAlts)})
	for a := 1; a < nAlts; a++ {
		alt := row.Clone()
		for _, c := range dirty {
			alt[c] = gens[c]()
		}
		alts = append(alts, models.Alternative{Data: alt, Prob: 1 / float64(nAlts)})
	}
	rel.Add(models.XTuple{Alts: alts})
}

// RealQuery couples the paper's Section 11.4 queries with the metadata the
// experiments need to compute exact certain answers.
type RealQuery struct {
	Name string
	SQL  string
}

// RealQueries returns the five queries of Section 11.4 adapted to the
// generated schemas (IUCR codes numeric; CASE translation of Q1 kept).
func RealQueries() []RealQuery {
	return []RealQuery{
		{Name: "Q1", SQL: `SELECT id, case_number,
			CASE iucr WHEN 820 THEN 'Theft' WHEN 486 THEN 'Domestic Battery' WHEN 1320 THEN 'Criminal Damage' END AS crime_type
			FROM crime WHERE iucr = 820 OR iucr = 486 OR iucr = 1320`},
		{Name: "Q2", SQL: `SELECT id, case_number, longitude, latitude FROM crime
			WHERE longitude BETWEEN -87.674 AND -87.619 AND latitude BETWEEN 41.892 AND 41.903`},
		{Name: "Q3", SQL: `SELECT street_address, zip_code, status FROM graffiti WHERE status = 'Open'`},
		{Name: "Q4", SQL: `SELECT inspection_date, address, zip FROM foodinspections
			WHERE results = 'Pass w/ Conditions' AND risk = 'Risk 1 (High)'`},
		{Name: "Q5", SQL: `SELECT c.id, c.case_number, c.iucr, g.status, g.service_request_number, g.community_area
			FROM (SELECT * FROM graffiti WHERE police_district = 8) g,
			     (SELECT * FROM crime WHERE district = '008') c
			WHERE c.x_coordinate < g.x_coordinate + 100
			  AND c.x_coordinate > g.x_coordinate - 100
			  AND c.y_coordinate < g.y_coordinate + 100
			  AND c.y_coordinate > g.y_coordinate - 100`},
	}
}

// Tables returns the named x-relations for catalog building.
func (rt *RealTables) Tables() map[string]*models.XRelation {
	return map[string]*models.XRelation{
		"crime":           rt.Crime,
		"graffiti":        rt.Graffiti,
		"foodinspections": rt.FoodInsp,
	}
}
