package algebra

import (
	"math"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// FuzzCompileVsEval is the Compile-vs-Eval parity fuzzer CI runs with a
// short -fuzztime budget: the fuzz input is decoded into an expression tree
// plus a batch of typed rows, and every compiled kernel family — per-row
// closure, whole-batch selector/strider, and the unboxed columnar loops —
// must agree with the interpreted Expr.Eval exactly (kind and canonical key
// encoding, not just Compare). Coverage-guided mutation explores operator,
// shape, and data-kind combinations the seeded randomized tests don't
// enumerate.
func FuzzCompileVsEval(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0x13, 0x05, 0x40, 0x41, 0x42})
	f.Add([]byte{0x30, 0x00, 0xff, 0x7f, 0x12, 0x99, 0x01, 0x02, 0x03, 0x04})
	f.Add([]byte("least-greatest-and-modulo"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{data: data}
		const arity = 3
		e := d.expr(arity, 3)
		nRows := 1 + int(d.byte())%24
		rows := make([][]types.Value, nRows)
		for i := range rows {
			row := make([]types.Value, arity)
			for j := range row {
				row[j] = d.value()
			}
			rows[i] = row
		}

		prog := Compile(e)
		for _, row := range rows {
			want, got := e.Eval(row), prog.Eval(row)
			if !sameValueFuzz(want, got) {
				t.Fatalf("expr %s row %v: Eval=%v Compiled=%v", e, row, want, got)
			}
		}

		var wantSel []int
		for i, row := range rows {
			if Truthy(e.Eval(row)) {
				wantSel = append(wantSel, i)
			}
		}
		if gotSel := prog.SelectTruthy(rows, nil); !equalSel(gotSel, wantSel) {
			t.Fatalf("expr %s: row sel %v, want %v", e, gotSel, wantSel)
		}

		cols := vector.FromRows(rows, arity).Slice(0, nRows)
		if sel, ok := prog.SelectTruthyVec(cols, nRows, nil); ok && !equalSel(sel, wantSel) {
			t.Fatalf("expr %s: vec sel %v, want %v", e, sel, wantSel)
		}
		if out, ok := prog.EvalVec(cols, nRows); ok {
			for i, row := range rows {
				if want, got := e.Eval(row), out.Value(i); !sameValueFuzz(want, got) {
					t.Fatalf("expr %s row %d: Eval=%v EvalVec=%v", e, i, want, got)
				}
			}
		}
	})
}

// sameValueFuzz requires exact identity: same kind and the same canonical
// key bytes (which distinguish NaN payloads and ±0 where Compare does not).
func sameValueFuzz(a, b types.Value) bool {
	return a.Kind() == b.Kind() && string(a.AppendKey(nil)) == string(b.AppendKey(nil))
}

func equalSel(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decoder turns a fuzz byte string into expression trees and values; it
// yields zeros once the input is exhausted, so every input decodes.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) value() types.Value {
	switch d.byte() % 8 {
	case 0:
		return types.Null()
	case 1:
		return types.NewBool(d.byte()%2 == 0)
	case 2, 3:
		return types.NewInt(int64(d.byte()) - 128)
	case 4:
		// Huge ints around 2^53 exercise the float-widening contract.
		return types.NewInt((int64(1) << 53) + int64(d.byte()%5) - 2)
	case 5:
		fs := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
		return types.NewFloat(fs[int(d.byte())%len(fs)])
	case 6:
		return types.NewFloat(float64(int(d.byte())-128) / 4)
	default:
		return types.NewString(string(rune('a' + d.byte()%4)))
	}
}

func (d *decoder) expr(arity, depth int) Expr {
	if depth <= 0 {
		if d.byte()%2 == 0 {
			return Col{Idx: int(d.byte()) % arity, Name: "c"}
		}
		return Const{V: d.value()}
	}
	sub := func() Expr { return d.expr(arity, depth-1) }
	switch d.byte() % 7 {
	case 0, 1:
		ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return Bin{Op: ops[int(d.byte())%len(ops)], L: sub(), R: sub()}
	case 2, 3:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return Bin{Op: ops[int(d.byte())%len(ops)], L: sub(), R: sub()}
	case 4:
		ops := []BinOp{OpAnd, OpOr, OpConcat}
		return Bin{Op: ops[int(d.byte())%len(ops)], L: sub(), R: sub()}
	case 5:
		names := []string{"least", "greatest", "coalesce", "abs"}
		name := names[int(d.byte())%len(names)]
		args := make([]Expr, 1+int(d.byte())%3)
		for i := range args {
			args[i] = sub()
		}
		return ScalarFunc{Name: name, Args: args}
	default:
		switch d.byte() % 3 {
		case 0:
			return Not{E: sub()}
		case 1:
			return Neg{E: sub()}
		default:
			return IsNullE{E: sub(), Negated: d.byte()%2 == 0}
		}
	}
}
