package algebra

import "sort"

// WalkCols visits every column reference in e, in evaluation order.
func WalkCols(e Expr, f func(Col)) {
	switch n := e.(type) {
	case Col:
		f(n)
	case Const:
	case Bin:
		WalkCols(n.L, f)
		WalkCols(n.R, f)
	case Not:
		WalkCols(n.E, f)
	case Neg:
		WalkCols(n.E, f)
	case IsNullE:
		WalkCols(n.E, f)
	case CaseExpr:
		if n.Operand != nil {
			WalkCols(n.Operand, f)
		}
		for _, w := range n.Whens {
			WalkCols(w.Cond, f)
			WalkCols(w.Result, f)
		}
		if n.Else != nil {
			WalkCols(n.Else, f)
		}
	case LikeE:
		WalkCols(n.E, f)
		WalkCols(n.Pattern, f)
	case InE:
		WalkCols(n.E, f)
		for _, x := range n.List {
			WalkCols(x, f)
		}
	case ScalarFunc:
		for _, a := range n.Args {
			WalkCols(a, f)
		}
	}
}

// ColsUsed returns the sorted, deduplicated column positions referenced by e.
func ColsUsed(e Expr) []int {
	seen := map[int]bool{}
	WalkCols(e, func(c Col) { seen[c.Idx] = true })
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// MapCols returns a copy of e with every column reference replaced by f's
// result. Non-column leaves are preserved; unknown expression types are
// returned unchanged.
func MapCols(e Expr, f func(Col) Expr) Expr {
	switch n := e.(type) {
	case Col:
		return f(n)
	case Const:
		return n
	case Bin:
		return Bin{Op: n.Op, L: MapCols(n.L, f), R: MapCols(n.R, f)}
	case Not:
		return Not{E: MapCols(n.E, f)}
	case Neg:
		return Neg{E: MapCols(n.E, f)}
	case IsNullE:
		return IsNullE{E: MapCols(n.E, f), Negated: n.Negated}
	case CaseExpr:
		out := CaseExpr{}
		if n.Operand != nil {
			out.Operand = MapCols(n.Operand, f)
		}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				Cond:   MapCols(w.Cond, f),
				Result: MapCols(w.Result, f),
			})
		}
		if n.Else != nil {
			out.Else = MapCols(n.Else, f)
		}
		return out
	case LikeE:
		return LikeE{E: MapCols(n.E, f), Pattern: MapCols(n.Pattern, f), Negated: n.Negated}
	case InE:
		out := InE{E: MapCols(n.E, f), Negated: n.Negated}
		for _, x := range n.List {
			out.List = append(out.List, MapCols(x, f))
		}
		return out
	case ScalarFunc:
		out := ScalarFunc{Name: n.Name}
		for _, a := range n.Args {
			out.Args = append(out.Args, MapCols(a, f))
		}
		return out
	default:
		return e
	}
}

// ShiftCols returns a copy of e with every column index ≥ threshold shifted
// by delta. The join rewriting and the optimizer use it to re-base compiled
// expressions when columns are interposed or removed.
func ShiftCols(e Expr, threshold, delta int) Expr {
	return MapCols(e, func(c Col) Expr {
		if c.Idx >= threshold {
			return Col{Idx: c.Idx + delta, Name: c.Name}
		}
		return c
	})
}
