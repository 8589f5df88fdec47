// Type-resolution helpers shared by the analyzers. Engine packages are
// matched by canonical import path, with testdata stand-ins accepted by
// base name ("tbuf" stands in for "qpipe/internal/core/tbuf") so the
// analysistest suites can model the engine API with tiny fake packages.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Canonical import path of the engine package the analyzers know about.
const tbufPath = "qpipe/internal/core/tbuf"

// pkgMatches reports whether pkg is the engine package with canonical path
// full, or a testdata stand-in sharing its base name.
func pkgMatches(pkg *types.Package, full string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if path == full {
		return true
	}
	base := full[strings.LastIndex(full, "/")+1:]
	return path == base || strings.HasSuffix(path, "/"+base)
}

// calleeFunc resolves the static callee of call, for both plain calls and
// method calls. Returns nil for builtins, function-typed variables and
// dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if obj, ok := info.Uses[id].(*types.Func); ok {
		return obj
	}
	return nil
}

// recvTypeName returns the receiver's named-type name for a method, with
// pointers dereferenced; empty for non-methods.
func recvTypeName(fn *types.Func) (pkg *types.Package, name string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, ""
	}
	return named.Obj().Pkg(), named.Obj().Name()
}

// isMethodCall reports whether call invokes one of methods on pkgFull's
// type typeName (engine package or testdata stand-in).
func isMethodCall(info *types.Info, call *ast.CallExpr, pkgFull, typeName string, methods ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	recvPkg, recvName := recvTypeName(fn)
	if recvName != typeName || !pkgMatches(recvPkg, pkgFull) {
		return false
	}
	for _, m := range methods {
		if fn.Name() == m {
			return true
		}
	}
	return false
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// funcBodies collects every function body in the file — declarations and
// literals — paired with a printable name for diagnostics.
type funcBody struct {
	name string
	body *ast.BlockStmt
}

func fileFuncBodies(f *ast.File) []funcBody {
	var bodies []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				bodies = append(bodies, funcBody{name: x.Name.Name, body: x.Body})
			}
		case *ast.FuncLit:
			bodies = append(bodies, funcBody{name: "func literal", body: x.Body})
		}
		return true
	})
	return bodies
}

// parentMap maps every node in f to its parent, for analyses that need
// enclosing-statement context.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFunc climbs parents from n to the nearest enclosing function
// body (declaration or literal), returning its body.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for cur := n; cur != nil; cur = parents[cur] {
		switch x := cur.(type) {
		case *ast.FuncDecl:
			return x.Body
		case *ast.FuncLit:
			return x.Body
		}
	}
	return nil
}
