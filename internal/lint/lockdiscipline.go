package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDisciplineAnalyzer enforces the PR 3 concurrency rule: state
// annotated //hmn:guardedby <mutex> may only be touched on a code path
// that holds the named mutex.
//
// A struct field gains protection with a trailing (or preceding-line)
// comment:
//
//	mu   sync.Mutex
//	envs map[string]*envRecord //hmn:guardedby mu
//
// An access recv.field is then legal when one of:
//
//   - the enclosing function calls recv.mu.Lock() or recv.mu.RLock()
//     lexically before the access (the defer-Unlock idiom qualifies);
//   - the enclosing function is annotated //hmn:locked mu, declaring
//     that its callers hold the lock (the *Locked helper convention,
//     and the cluster.Txn commit entry points);
//   - the receiver is a local variable of the enclosing function — a
//     struct still under construction is unpublished, so constructors
//     need no lock.
//
// The mutex name may also be an external capability token (e.g.
// "session" on cluster.Ledger's residual vectors, which are guarded by
// the owning core.Session's lock): no field of that name exists, so
// the only ways in are //hmn:locked session or local construction —
// every new function touching the residuals must explicitly declare
// the obligation it inherits.
var LockDisciplineAnalyzer = &Analyzer{
	Name: "lockdiscipline",
	Run:  runLockDiscipline,
}

// guardedField is one annotated field of one struct type.
type guardedField struct {
	mutex string // guard name from the annotation
}

func runLockDiscipline(pass *Pass) (interface{}, error) {
	if !analyzerInScope(pass.Pkg.Path(), "lockdiscipline", func(string) bool { return true }) {
		return nil, nil
	}
	guards := collectGuardedFields(pass)
	if len(guards) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncLockDiscipline(pass, file, fd, guards)
		}
	}
	return nil, nil
}

// collectGuardedFields finds every //hmn:guardedby annotation on a
// struct field in the package.
func collectGuardedFields(pass *Pass) map[*types.Var]guardedField {
	guards := make(map[*types.Var]guardedField)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				arg, ok := pass.annotated(file, field.Pos(), dirGuardedBy)
				if !ok || arg == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = guardedField{mutex: arg}
					}
				}
			}
			return true
		})
	}
	return guards
}

// lockCall records one x.mu.Lock()/RLock() call site inside a function.
type lockCall struct {
	recv  string // rendering of the expression owning the mutex ("s", "sess")
	mutex string // the mutex field name
	pos   token.Pos
}

// checkFuncLockDiscipline verifies every guarded-field access in fd.
func checkFuncLockDiscipline(pass *Pass, file *ast.File, fd *ast.FuncDecl, guards map[*types.Var]guardedField) {
	lockedArg, lockedOK := pass.annotated(file, fd.Pos(), dirLocked)
	if !lockedOK && fd.Doc != nil {
		// The annotation may sit anywhere in the doc comment block.
		for _, c := range fd.Doc.List {
			if d, ok := parseDirective(c); ok && d.name == dirLocked {
				lockedArg, lockedOK = d.arg, true
			}
		}
	}

	var locks []lockCall
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name := sel.Sel.Name; name != "Lock" && name != "RLock" {
			return true
		}
		// Expect <expr>.<mutexField>.Lock(); record <expr> and field.
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		locks = append(locks, lockCall{
			recv:  exprString(inner.X),
			mutex: inner.Sel.Name,
			pos:   call.Pos(),
		})
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		g, guarded := guards[obj]
		if !guarded {
			return true
		}
		if lockedOK && lockedArg == g.mutex {
			return true
		}
		recv := exprString(sel.X)
		for _, lc := range locks {
			if lc.mutex == g.mutex && lc.recv == recv && lc.pos < sel.Pos() {
				return true
			}
		}
		if receiverIsLocal(pass, sel.X) {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %q but no %s.%s.Lock()/RLock() precedes this access "+
				"(hold the lock, or annotate the function //hmn:locked %s)",
			recv, obj.Name(), g.mutex, recv, g.mutex, g.mutex)
		return true
	})
}

// receiverIsLocal reports whether the accessed struct is a variable
// declared inside the current function (an unpublished value under
// construction). Parameters and method receivers do NOT qualify: they
// arrive from callers who may share the value.
func receiverIsLocal(pass *Pass, recv ast.Expr) bool {
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return false
	}
	// A local is defined by a statement, not by a field list: walk the
	// file and see whether the defining ident sits in any FuncDecl's
	// parameter or receiver list.
	return !isParamOrReceiver(pass, obj)
}

// isParamOrReceiver reports whether obj is bound in a function
// signature (parameter, result or receiver) rather than a body.
func isParamOrReceiver(pass *Pass, obj *types.Var) bool {
	for _, file := range pass.Files {
		if !(file.FileStart <= obj.Pos() && obj.Pos() <= file.FileEnd) {
			continue
		}
		found := false
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			var typ *ast.FuncType
			var recvList *ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				typ, recvList = n.Type, n.Recv
			case *ast.FuncLit:
				typ = n.Type
			default:
				return true
			}
			for _, fl := range []*ast.FieldList{recvList, typ.Params, typ.Results} {
				if fl == nil {
					continue
				}
				for _, f := range fl.List {
					for _, name := range f.Names {
						if pass.TypesInfo.Defs[name] == obj {
							found = true
						}
					}
				}
			}
			return true
		})
		return found
	}
	return false
}

// exprString renders a (small) expression for textual receiver
// matching: idents, selectors and parens only — anything else gets a
// unique-ish placeholder so it never matches.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "<expr>"
	}
}
