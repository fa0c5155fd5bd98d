package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// PoolFree enforces the PR 3 pooled-buffer contract: a *wire.Writer
// obtained from wire.GetWriter is owned by the acquiring function and
// must reach a matching Free on every return path. Three findings
// exist:
//
//   - leak: some path returns while an acquired writer is neither freed
//     nor deferred-freed — the buffer never returns to the pool;
//   - ownership transfer: the writer value escapes the function (stored
//     into a field/map/slice, passed as an argument, captured by a
//     closure, returned), so "Free on every path here" can no longer be
//     checked locally;
//   - pooled body: the writer's bytes are handed over as a Body (the
//     Body field of rp2p.Send or udp.Send, the body argument of
//     transport.Endpoint.Enqueue). A Body is never copied: it is
//     kept by reference until an ack or a socket write that happens
//     long after the call, and read from other goroutines meanwhile,
//     so the pool would recycle the buffer under its readers. Data
//     fields are copied while the request is handled and are fine.
//
// Transfers are sometimes the design (rp2p parks encoded packets until
// the ack; rbcast frames live in the module between executor passes):
// those sites must carry a //dpulint:ignore poolfree <reason> naming
// the owner responsible for the eventual Free.
var PoolFree = &lint.Analyzer{
	Name: "poolfree",
	Doc:  "every wire.GetWriter must reach a matching Free on all return paths of the acquiring function",
	Run:  runPoolFree,
}

func runPoolFree(pass *lint.Pass) error {
	for _, f := range pass.Files {
		// Every function body is a scope; nested literals are scopes of
		// their own (a writer acquired inside a literal is owned by it).
		var scopes []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scopes = append(scopes, n.Body)
				}
			case *ast.FuncLit:
				scopes = append(scopes, n.Body)
			}
			return true
		})
		for _, body := range scopes {
			checkPoolScope(pass, body)
		}
	}
	return nil
}

// wstate is the per-writer abstract state, a may-set over {live, freed}.
type wstate uint8

const (
	stLive  wstate = 1 << iota // some path reaches here with the buffer unfreed
	stFreed                    // some path reaches here after Free
)

type poolChecker struct {
	pass     *lint.Pass
	body     *ast.BlockStmt
	acquired map[*types.Var]token.Pos // writer vars owned by this scope
	deferred map[*types.Var]bool      // freed by a defer
	reported map[*types.Var]bool
	bailed   bool // goto or other unsupported flow: skip leak reporting
}

// checkPoolScope analyzes one function body.
func checkPoolScope(pass *lint.Pass, body *ast.BlockStmt) {
	c := &poolChecker{
		pass:     pass,
		body:     body,
		acquired: make(map[*types.Var]token.Pos),
		deferred: make(map[*types.Var]bool),
		reported: make(map[*types.Var]bool),
	}
	c.collectAcquisitions()
	if len(c.acquired) == 0 {
		return
	}
	c.checkBodies()
	c.checkEscapes()
	if len(c.acquired) == 0 {
		return
	}
	out := c.stmt(body, make(poolEnv))
	if c.bailed {
		return
	}
	if out != nil {
		c.checkExit(out, body.End())
	}
}

// collectAcquisitions records vars assigned directly from
// wire.GetWriter in this scope (not inside nested literals).
func (c *poolChecker) collectAcquisitions() {
	c.walkScope(c.body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isWireGetWriter(c.pass.Info, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := c.pass.Info.Defs[id]
			if obj == nil {
				obj = c.pass.Info.Uses[id]
			}
			if v, ok := obj.(*types.Var); ok {
				if _, dup := c.acquired[v]; !dup {
					c.acquired[v] = call.Pos()
				}
			}
		}
	})
}

// walkScope visits nodes of the scope without descending into nested
// function literals.
func (c *poolChecker) walkScope(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != root {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// checkBodies reports bytes of a tracked writer that are handed over as
// a by-reference body: the value of a Body field in a composite literal
// or an assignment, or the third argument of a three-argument Enqueue
// call (transport.Endpoint's, whose head is copied and body kept). The
// bytes are recognised as w.Bytes() (through a method chain or a slice
// expression) or as a local assigned from that.
func (c *poolChecker) checkBodies() {
	alias := make(map[*types.Var]*types.Var) // local []byte -> the writer it came from
	var pooled func(e ast.Expr) *types.Var
	pooled = func(e ast.Expr) *types.Var {
		switch e := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			return pooled(e.X)
		case *ast.Ident:
			if v, ok := c.pass.Info.Uses[e].(*types.Var); ok {
				return alias[v]
			}
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Bytes" {
				return nil
			}
			// w.Bytes(), or w.Raw(x).Bytes(): the chain's root is the writer.
			root := sel.X
			for {
				if call, ok := ast.Unparen(root).(*ast.CallExpr); ok {
					if inner, ok := call.Fun.(*ast.SelectorExpr); ok {
						root = inner.X
						continue
					}
				}
				break
			}
			if id, ok := ast.Unparen(root).(*ast.Ident); ok {
				if v, ok := c.pass.Info.Uses[id].(*types.Var); ok {
					if _, tracked := c.acquired[v]; tracked {
						return v
					}
				}
			}
		}
		return nil
	}
	check := func(e ast.Expr) {
		if w := pooled(e); w != nil {
			acq := c.pass.Fset.Position(c.acquired[w])
			c.pass.Report(lint.Diagnostic{
				Pos: e.Pos(),
				Message: fmt.Sprintf(
					"bytes of pooled wire.Writer %s (acquired at %s:%d) passed as a Body: a Body is kept by reference past the call and read from other goroutines, so it must not come from the pool (copy it, or send it as Data)",
					w.Name(), trimPath(acq.Filename), acq.Line),
			})
		}
	}
	c.walkScope(c.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || len(n.Lhs) != len(n.Rhs) {
					break
				}
				switch lhs := lhs.(type) {
				case *ast.Ident:
					obj := c.pass.Info.Defs[lhs]
					if obj == nil {
						obj = c.pass.Info.Uses[lhs]
					}
					if v, ok := obj.(*types.Var); ok {
						if w := pooled(n.Rhs[i]); w != nil {
							alias[v] = w
						}
					}
				case *ast.SelectorExpr:
					if lhs.Sel.Name == "Body" {
						check(n.Rhs[i])
					}
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Body" {
				check(n.Value)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Enqueue" && len(n.Args) == 3 {
				check(n.Args[2])
			}
		}
	})
}

// checkEscapes reports tracked writers whose value leaves the scope and
// stops tracking them (ownership moved; leak analysis no longer local).
func (c *poolChecker) checkEscapes() {
	// Identify, for each use of a tracked var, whether it is a benign
	// receiver/assignment position. Everything else is a transfer.
	benign := make(map[*ast.Ident]bool)
	c.walkScope(c.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// w.Free(), w.Bytes(), w.Uvarint(...): using the writer
			// through its methods never moves ownership.
			if id, ok := n.X.(*ast.Ident); ok {
				benign[id] = true
			}
		case *ast.BinaryExpr:
			// Comparisons (w == nil, w != prev) inspect the pointer
			// without moving ownership.
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				benign[id] = true
			}
			if id, ok := ast.Unparen(n.Y).(*ast.Ident); ok {
				benign[id] = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				// Reassignment from GetWriter is a fresh acquisition;
				// anything else on the RHS poisons local tracking and is
				// handled below as a transfer of the old value.
				if i < len(n.Rhs) {
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && isWireGetWriter(c.pass.Info, call) {
						benign[id] = true
					}
				}
			}
		}
	})

	escaped := make(map[*types.Var]bool)
	// Closure captures: any use of a tracked var inside a nested literal.
	ast.Inspect(c.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && n != ast.Node(c.body) {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := c.pass.Info.Uses[id].(*types.Var); ok {
						if _, tracked := c.acquired[v]; tracked && !escaped[v] {
							escaped[v] = true
							c.report(v, id.Pos(), "captured by a function literal")
						}
					}
				}
				return true
			})
			return false
		}
		return true
	})
	c.walkScope(c.body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || benign[id] {
			return
		}
		v, ok := c.pass.Info.Uses[id].(*types.Var)
		if !ok {
			return
		}
		if _, tracked := c.acquired[v]; !tracked || escaped[v] {
			return
		}
		escaped[v] = true
		c.report(v, id.Pos(), "leaves the function here (stored, passed or returned)")
	})
	for v := range escaped {
		delete(c.acquired, v)
	}
}

func (c *poolChecker) report(v *types.Var, pos token.Pos, how string) {
	if c.reported[v] {
		return
	}
	c.reported[v] = true
	acq := c.pass.Fset.Position(c.acquired[v])
	c.pass.Report(lint.Diagnostic{
		Pos: pos,
		Message: fmt.Sprintf(
			"pooled wire.Writer %s (acquired at %s:%d) %s: ownership transfers must guarantee the eventual Free and carry a //dpulint:ignore poolfree <reason>",
			v.Name(), trimPath(acq.Filename), acq.Line, how),
	})
}

func (c *poolChecker) reportLeak(v *types.Var, at token.Pos) {
	if c.reported[v] {
		return
	}
	c.reported[v] = true
	acq := c.pass.Fset.Position(c.acquired[v])
	c.pass.Report(lint.Diagnostic{
		Pos: at,
		Message: fmt.Sprintf(
			"pooled wire.Writer %s (acquired at %s:%d) may not reach Free on this return path",
			v.Name(), trimPath(acq.Filename), acq.Line),
	})
}

type poolEnv map[*types.Var]wstate

func (e poolEnv) clone() poolEnv {
	out := make(poolEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// join merges two fallthrough environments; either may be nil (path
// does not fall through).
func join(a, b poolEnv) poolEnv {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func (c *poolChecker) checkExit(e poolEnv, at token.Pos) {
	for v, st := range e {
		if st&stLive != 0 && !c.deferred[v] {
			c.reportLeak(v, at)
		}
	}
}

// stmt abstractly executes one statement. It returns the environment on
// fallthrough, or nil when the path terminates (return, panic).
func (c *poolChecker) stmt(s ast.Stmt, e poolEnv) poolEnv {
	if c.bailed || s == nil {
		return e
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			e = c.stmt(st, e)
			if e == nil {
				return nil
			}
		}
		return e
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isWireGetWriter(c.pass.Info, call) {
					continue
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.Info.Defs[id]
				if obj == nil {
					obj = c.pass.Info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok {
					if _, tracked := c.acquired[v]; tracked {
						if prev, had := e[v]; had && prev&stLive != 0 {
							c.reportLeak(v, s.Pos())
						}
						e[v] = stLive
					}
				}
			}
		}
		return e
	case *ast.ExprStmt:
		if v, ok := c.freeCallOn(s.X); ok {
			e[v] = stFreed
			return e
		}
		if isPanic(s.X) {
			return nil
		}
		return e
	case *ast.DeferStmt:
		if v, ok := c.freeCallOn(s.Call); ok {
			c.deferred[v] = true
		}
		return e
	case *ast.ReturnStmt:
		c.checkExit(e, s.Pos())
		return nil
	case *ast.IfStmt:
		e = c.stmt(s.Init, e)
		thenEnv := c.stmt(s.Body, e.clone())
		var elseEnv poolEnv
		if s.Else != nil {
			elseEnv = c.stmt(s.Else, e.clone())
		} else {
			elseEnv = e
		}
		return join(thenEnv, elseEnv)
	case *ast.ForStmt:
		e = c.stmt(s.Init, e)
		body := c.stmt(s.Body, e.clone())
		if s.Post != nil && body != nil {
			body = c.stmt(s.Post, body)
		}
		return join(e, body)
	case *ast.RangeStmt:
		body := c.stmt(s.Body, e.clone())
		return join(e, body)
	case *ast.SwitchStmt:
		e = c.stmt(s.Init, e)
		return c.caseBodies(s.Body, e, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		e = c.stmt(s.Init, e)
		return c.caseBodies(s.Body, e, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		return c.caseBodies(s.Body, e, true)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, e)
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			c.bailed = true
		}
		// break/continue/fallthrough: approximate as falling through to
		// the enclosing join.
		return e
	default:
		return e
	}
}

// caseBodies joins the clause bodies of a switch/select; withoutMatch
// adds the no-clause-taken path when there is no default.
func (c *poolChecker) caseBodies(body *ast.BlockStmt, e poolEnv, hasDefault bool) poolEnv {
	var out poolEnv
	if !hasDefault {
		out = e
	}
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		env := e.clone()
		for _, st := range stmts {
			env = c.stmt(st, env)
			if env == nil {
				break
			}
		}
		out = join(out, env)
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// freeCallOn matches `v.Free()` for a tracked writer v.
func (c *poolChecker) freeCallOn(x ast.Expr) (*types.Var, bool) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Free" {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := c.pass.Info.Uses[id].(*types.Var)
	if !ok {
		return nil, false
	}
	_, tracked := c.acquired[v]
	return v, tracked
}

func isPanic(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// trimPath shortens an absolute filename to its last two segments for
// readable diagnostics.
func trimPath(p string) string {
	n := 0
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			n++
			if n == 2 {
				return p[i+1:]
			}
		}
	}
	return p
}
