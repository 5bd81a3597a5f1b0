package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer closes the deadlock class that sharded federation
// will multiply: it builds a static lock-acquisition graph for each
// package and reports (a) cycles — two paths that acquire the same pair
// of locks in opposite orders — and (b) acquisitions that contradict a
// declared //hmn:lockorder <first> <second> contract.
//
// Nodes are lock identities: Type.field for x.mu.Lock() where x has a
// named type, the bare name for package-level mutexes. Edges come from
// three observations, per function, in lexical order:
//
//   - holding A when B.Lock()/RLock() runs adds A→B;
//   - holding A when calling a same-package function whose body
//     acquires B adds A→B (one level — the *Locked helper convention
//     means deeper nesting is already annotation-visible);
//   - //hmn:locked <mutex> marks the mutex held on entry, so the
//     contract edges of helper functions are charged to their callers'
//     lock.
//
// An explicit (non-deferred) Unlock/RUnlock releases the lock at that
// point — the wal barrier idiom of dropping mu before taking syncMu is
// ordered, not cyclic. Deferred unlocks hold to function end. Edges
// between two acquisitions of the same identity (lock-per-shard loops)
// are skipped: the analyzer cannot distinguish instances.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

// lockEdge is one observed "to acquired while holding from".
type lockEdge struct {
	from, to string
}

func runLockOrder(pass *Pass) (interface{}, error) {
	if !analyzerInScope(pass.Pkg.Path(), "lockorder", func(string) bool { return true }) {
		return nil, nil
	}
	acquires := collectFuncAcquires(pass)

	edges := make(map[lockEdge]token.Pos)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			collectLockEdges(pass, file, fd, acquires, edges)
		}
	}
	if len(edges) == 0 {
		return nil, nil
	}
	reportLockCycles(pass, edges)
	reportDeclaredOrderViolations(pass, edges)
	return nil, nil
}

// lockEvent is one lexical lock-relevant occurrence inside a function.
type lockEvent struct {
	pos      token.Pos
	kind     int    // 0 acquire, 1 release, 2 call
	identity string // acquire/release: lock identity
	recv     string // acquire/release: textual owner expression
	callee   *types.Func
}

// collectLockEdges simulates fd's lock events in source order and adds
// the held→acquired edges it observes.
func collectLockEdges(pass *Pass, file *ast.File, fd *ast.FuncDecl, acquires map[*types.Func][]string, edges map[lockEdge]token.Pos) {
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferred[ds.Call] = true
		}
		return true
	})

	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			var kind int
			switch sel.Sel.Name {
			case "Lock", "RLock":
				kind = 0
			case "Unlock", "RUnlock":
				if deferred[call] {
					return true // held to function end
				}
				kind = 1
			default:
				goto notMutex
			}
			if id, recv, ok := lockIdentity(pass, sel.X); ok {
				events = append(events, lockEvent{pos: call.Pos(), kind: kind, identity: id, recv: recv})
				return true
			}
		}
	notMutex:
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() == pass.Pkg {
			if len(acquires[fn]) > 0 {
				events = append(events, lockEvent{pos: call.Pos(), kind: 2, callee: fn})
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// Locks declared held on entry by //hmn:locked.
	type held struct{ identity, recv string }
	var stack []held
	if arg, ok := funcAnnotated(pass, file, fd, dirLocked); ok && arg != "" {
		stack = append(stack, held{identity: entryLockIdentity(pass, fd, arg), recv: "<caller>"})
	}

	addEdge := func(to string, pos token.Pos) {
		for _, h := range stack {
			if h.identity == to {
				continue
			}
			e := lockEdge{from: h.identity, to: to}
			if _, ok := edges[e]; !ok {
				edges[e] = pos
			}
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			addEdge(ev.identity, ev.pos)
			stack = append(stack, held{identity: ev.identity, recv: ev.recv})
		case 1:
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].identity == ev.identity && stack[i].recv == ev.recv {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		case 2:
			for _, id := range acquires[ev.callee] {
				addEdge(id, ev.pos)
			}
		}
	}
}

// collectFuncAcquires maps every package function to the sorted set of
// lock identities its body acquires directly.
func collectFuncAcquires(pass *Pass) map[*types.Func][]string {
	out := make(map[*types.Func][]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			seen := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
					return true
				}
				if id, _, ok := lockIdentity(pass, sel.X); ok && !seen[id] {
					seen[id] = true
					out[fn] = append(out[fn], id)
				}
				return true
			})
			sort.Strings(out[fn])
		}
	}
	return out
}

// lockIdentity names the mutex expression e (the x.mu of x.mu.Lock()):
// Type.field when the owner has a named struct type, the bare name for
// a package-level or local mutex variable. Reports ok=false when e is
// not a plausible mutex reference.
func lockIdentity(pass *Pass, e ast.Expr) (identity, recv string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		t := typeOf(pass.TypesInfo, e.X)
		for {
			p, isPtr := t.(*types.Pointer)
			if !isPtr {
				break
			}
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return named.Obj().Name() + "." + e.Sel.Name, exprString(e.X), true
		}
		return e.Sel.Name, exprString(e.X), true
	case *ast.Ident:
		return e.Name, "", true
	}
	return "", "", false
}

// entryLockIdentity resolves a //hmn:locked argument to a lock
// identity: the receiver type's field of that name when one exists,
// otherwise the bare capability token ("session").
func entryLockIdentity(pass *Pass, fd *ast.FuncDecl, arg string) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return arg
	}
	t := typeOf(pass.TypesInfo, fd.Recv.List[0].Type)
	for {
		p, isPtr := t.(*types.Pointer)
		if !isPtr {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return arg
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == arg {
				return named.Obj().Name() + "." + arg
			}
		}
	}
	return arg
}

// reportLockCycles finds strongly connected components of the edge
// graph and reports every edge inside one — each is half of a
// potential deadlock.
func reportLockCycles(pass *Pass, edges map[lockEdge]token.Pos) {
	adj := make(map[string][]string)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	scc := stronglyConnected(adj)
	keys := make([]lockEdge, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, e := range keys {
		if scc[e.from] != 0 && scc[e.from] == scc[e.to] {
			pass.Reportf(edges[e],
				"acquiring %q while holding %q is part of a lock-order cycle; "+
					"another path acquires them in the opposite order", e.to, e.from)
		}
	}
}

// stronglyConnected labels each node with its SCC id; nodes in
// single-node components get id 0 (no cycle through them).
func stronglyConnected(adj map[string][]string) map[string]int {
	nodes := make([]string, 0, len(adj))
	seenNode := make(map[string]bool)
	addNode := func(n string) {
		if !seenNode[n] {
			seenNode[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Strings(nodes)
	for _, tos := range adj {
		sort.Strings(tos)
	}

	// Tarjan, iteratively via recursion on small graphs is fine: lock
	// graphs have a handful of nodes.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	comp := make(map[string]int)
	next, nextComp := 1, 1
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				for _, m := range members {
					comp[m] = nextComp
				}
				nextComp++
			}
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp
}

// reportDeclaredOrderViolations checks every edge against the
// package's //hmn:lockorder <first> <second> declarations: acquiring
// <first> while holding <second> reverses the contract. Identities are
// matched by field name so "log.syncMu" satisfies a declaration that
// says "syncMu".
func reportDeclaredOrderViolations(pass *Pass, edges map[lockEdge]token.Pos) {
	type order struct{ first, second string }
	var declared []order
	for _, d := range pass.packageDirectives(dirLockOrder) {
		first, second, ok := strings.Cut(d.arg, " ")
		first, second = strings.TrimSpace(first), strings.TrimSpace(second)
		if !ok || first == "" || second == "" {
			pass.Reportf(d.pos, "//hmn:lockorder needs two lock names: <first> <second>")
			continue
		}
		declared = append(declared, order{first: first, second: second})
	}
	if len(declared) == 0 {
		return
	}
	keys := make([]lockEdge, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, e := range keys {
		for _, o := range declared {
			if lockFieldName(e.from) == o.second && lockFieldName(e.to) == o.first {
				pass.Reportf(edges[e],
					"acquiring %q while holding %q violates the declared order //hmn:lockorder %s %s",
					e.to, e.from, o.first, o.second)
			}
		}
	}
}

// lockFieldName strips the owning type from a lock identity.
func lockFieldName(identity string) string {
	if i := strings.LastIndex(identity, "."); i >= 0 {
		return identity[i+1:]
	}
	return identity
}
