package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// randExpr generates a random expression over a row of the given arity,
// biased toward the shapes the compiler specializes (column/constant
// comparisons and arithmetic) but covering every node type Compile handles,
// including the fallback ones.
func randExpr(rng *rand.Rand, arity, depth int) Expr {
	randConst := func() Expr {
		switch rng.Intn(5) {
		case 0:
			return Const{V: types.Null()}
		case 1:
			return Const{V: types.NewBool(rng.Intn(2) == 0)}
		case 2:
			return Const{V: types.NewInt(int64(rng.Intn(9) - 4))}
		case 3:
			return Const{V: types.NewFloat(float64(rng.Intn(9)-4) / 2)}
		default:
			return Const{V: types.NewString(string(rune('a' + rng.Intn(3))))}
		}
	}
	if depth <= 0 {
		if rng.Intn(2) == 0 && arity > 0 {
			return Col{Idx: rng.Intn(arity), Name: "c"}
		}
		return randConst()
	}
	sub := func() Expr { return randExpr(rng, arity, depth-1) }
	switch rng.Intn(9) {
	case 0, 1, 2:
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return Bin{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 3, 4:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return Bin{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 5:
		ops := []BinOp{OpAnd, OpOr, OpConcat}
		return Bin{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 6:
		switch rng.Intn(3) {
		case 0:
			return Not{E: sub()}
		case 1:
			return Neg{E: sub()}
		default:
			return IsNullE{E: sub(), Negated: rng.Intn(2) == 0}
		}
	case 7:
		names := []string{"least", "greatest", "coalesce", "abs", "length", "lower"}
		name := names[rng.Intn(len(names))]
		nArgs := 1
		if name == "least" || name == "greatest" || name == "coalesce" {
			nArgs = 1 + rng.Intn(3)
		}
		args := make([]Expr, nArgs)
		for i := range args {
			args[i] = sub()
		}
		return ScalarFunc{Name: name, Args: args}
	default:
		// Fallback-path nodes: CASE and IN keep the uncompiled kernel
		// honest.
		if rng.Intn(2) == 0 {
			return CaseExpr{
				Whens: []CaseWhen{{Cond: sub(), Result: sub()}},
				Else:  sub(),
			}
		}
		return InE{E: sub(), List: []Expr{sub(), sub()}, Negated: rng.Intn(2) == 0}
	}
}

func randRow(rng *rand.Rand, arity int) []types.Value {
	row := make([]types.Value, arity)
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = types.Null()
		case 1:
			row[i] = types.NewBool(rng.Intn(2) == 0)
		case 2:
			row[i] = types.NewInt(int64(rng.Intn(9) - 4))
		case 3:
			row[i] = types.NewFloat(float64(rng.Intn(9)-4) / 2)
		default:
			row[i] = types.NewString(string(rune('a' + rng.Intn(3))))
		}
	}
	return row
}

// TestCompileMatchesEvalHugeInts pins the comparison fast paths to
// Value.Compare's float64-widening semantics at the 2^53 boundary, where
// exact int64 comparison would diverge from Eval, Compare, and the hash-key
// encoding (2^53 and 2^53+1 are equal once widened).
func TestCompileMatchesEvalHugeInts(t *testing.T) {
	const big = int64(1) << 53
	vals := []types.Value{
		types.NewInt(big), types.NewInt(big + 1), types.NewInt(-big), types.NewInt(-big - 1),
		types.NewFloat(float64(big)), types.NewInt(big - 1),
	}
	ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				exprs := []Expr{
					Bin{Op: op, L: Col{Idx: 0}, R: Col{Idx: 1}},         // col-col selector
					Bin{Op: op, L: Col{Idx: 0}, R: Const{V: b}},         // col-const selector
					Bin{Op: op, L: Const{V: a}, R: Col{Idx: 1}},         // const-col selector
					Bin{Op: op, L: Neg{E: Col{Idx: 0}}, R: Col{Idx: 1}}, // generic kernel
				}
				row := []types.Value{a, b}
				for _, e := range exprs {
					prog := Compile(e)
					want, got := e.Eval(row), prog.Eval(row)
					if want.Compare(got) != 0 || want.Kind() != got.Kind() {
						t.Fatalf("%s on (%v,%v): Eval=%v Compiled=%v", e, a, b, want, got)
					}
					sel := prog.SelectTruthy([][]types.Value{row}, nil)
					if (len(sel) == 1) != Truthy(want) {
						t.Fatalf("%s on (%v,%v): selector %v, Eval %v", e, a, b, sel, want)
					}
				}
			}
		}
	}
}

// TestCompileMatchesEval fuzzes the compiled kernels — per-row closure,
// whole-batch selector, and strided projection — against the interpreted
// Expr.Eval on random expressions and random mixed-kind rows with NULLs.
func TestCompileMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const arity = 4
	for trial := 0; trial < 400; trial++ {
		e := randExpr(rng, arity, 1+rng.Intn(3))
		prog := Compile(e)
		rows := make([][]types.Value, 1+rng.Intn(40))
		for i := range rows {
			rows[i] = randRow(rng, arity)
		}

		// Per-row kernel parity.
		for _, row := range rows {
			want, got := e.Eval(row), prog.Eval(row)
			if want.Compare(got) != 0 || want.Kind() != got.Kind() {
				t.Fatalf("expr %s on row %v: Eval=%v Compiled=%v", e, row, want, got)
			}
		}

		// Selection-vector parity (exercises the specialized selector when
		// the expression shape matches, the generic loop otherwise).
		var wantSel []int
		for i, row := range rows {
			if Truthy(e.Eval(row)) {
				wantSel = append(wantSel, i)
			}
		}
		gotSel := prog.SelectTruthy(rows, nil)
		if len(gotSel) != len(wantSel) {
			t.Fatalf("expr %s: sel %v, want %v", e, gotSel, wantSel)
		}
		for i := range gotSel {
			if gotSel[i] != wantSel[i] {
				t.Fatalf("expr %s: sel %v, want %v", e, gotSel, wantSel)
			}
		}

		// Strided and column evaluation parity.
		const stride = 3
		dst := make([]types.Value, len(rows)*stride)
		prog.EvalStrided(rows, dst, stride)
		col := prog.EvalColumn(rows, nil)
		for i, row := range rows {
			want := e.Eval(row)
			if dst[i*stride].Compare(want) != 0 || dst[i*stride].Kind() != want.Kind() {
				t.Fatalf("expr %s: strided[%d]=%v, want %v", e, i, dst[i*stride], want)
			}
			if col[i].Compare(want) != 0 || col[i].Kind() != want.Kind() {
				t.Fatalf("expr %s: column[%d]=%v, want %v", e, i, col[i], want)
			}
		}
	}
}
