// rowlint enforces that published rows are immutable: tuples received from
// a Buffer.Get are shared by reference with OSP satellites and a port's
// replay window, so writing into one corrupts other queries' results. The
// batch array itself is the consumer's own — it may reorder or overwrite its
// slots — but never the rows in them.
//
// The analysis is function-local. A variable assigned from Buffer.Get holds
// published rows, and so does a tuple read out of it by index or by range.
// A write through any of them is reported: b[i][j] = v, t[j] = v,
// t[j].I = v, t[j]++.

package lint

import (
	"go/ast"
	"go/types"
)

// RowLint is the published-row immutability analyzer.
var RowLint = &Analyzer{
	Name: "rowlint",
	Doc: "check that rows read from a Buffer.Get are never written: they are shared by reference " +
		"with OSP satellites and the replay window",
	Run: runRowLint,
}

func runRowLint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fb := range fileFuncBodies(f) {
			w := &rowWalk{pass: pass, batches: map[types.Object]bool{}, rows: map[types.Object]bool{}}
			ast.Inspect(fb.body, w.visit)
		}
	}
	return nil
}

// rowWalk follows one function body in source order.
type rowWalk struct {
	pass    *Pass
	batches map[types.Object]bool // variables holding a Buffer.Get batch
	rows    map[types.Object]bool // variables holding one of its rows
}

func (w *rowWalk) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FuncLit:
		return false // a function of its own (fileFuncBodies)
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			w.checkWrite(lhs)
		}
		for i, rhs := range x.Rhs {
			if i < len(x.Lhs) {
				w.track(x.Lhs[i], rhs)
			}
		}
	case *ast.ValueSpec:
		for i, v := range x.Values {
			if i < len(x.Names) {
				w.track(x.Names[i], v)
			}
		}
	case *ast.IncDecStmt:
		w.checkWrite(x.X)
	case *ast.RangeStmt:
		if x.Value != nil && w.holds(w.batches, x.X) {
			w.mark(w.rows, x.Value)
		}
	}
	return true
}

// track records lhs as a batch when rhs is a Buffer.Get, and as a row when
// rhs indexes a batch.
func (w *rowWalk) track(lhs, rhs ast.Expr) {
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if isMethodCall(w.pass.TypesInfo, r, tbufPath, "Buffer", "Get") {
			w.mark(w.batches, lhs)
		}
	case *ast.IndexExpr:
		if w.holds(w.batches, r.X) {
			w.mark(w.rows, lhs)
		}
	}
}

// checkWrite reports lhs when it writes through a published row: field
// selectors are stripped (t[0].I = v writes through the row as t[0] = v
// does), and what is left must index a row, or a row of a batch.
func (w *rowWalk) checkWrite(lhs ast.Expr) {
	e := ast.Unparen(lhs)
	for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = e.(*ast.SelectorExpr) {
		e = ast.Unparen(sel.X)
	}
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return
	}
	if w.holds(w.rows, idx.X) {
		w.pass.Reportf(lhs.Pos(),
			"write through tuple %s read from a Buffer.Get batch: rows are immutable once published (shared by reference with OSP satellites and the replay window)",
			ast.Unparen(idx.X).(*ast.Ident).Name)
	} else if inner, ok := ast.Unparen(idx.X).(*ast.IndexExpr); ok && w.holds(w.batches, inner.X) {
		w.pass.Reportf(lhs.Pos(),
			"write into row of consumer batch %s: rows are immutable once published (shared by reference with OSP satellites and the replay window)",
			ast.Unparen(inner.X).(*ast.Ident).Name)
	}
}

// holds reports whether e names a variable in set.
func (w *rowWalk) holds(set map[types.Object]bool, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && set[objOf(w.pass.TypesInfo, id)]
}

// mark adds the variable e names to set.
func (w *rowWalk) mark(set map[types.Object]bool, e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
		if obj := objOf(w.pass.TypesInfo, id); obj != nil {
			set[obj] = true
		}
	}
}
