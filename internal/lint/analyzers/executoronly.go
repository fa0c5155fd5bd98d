package analyzers

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// ExecutorOnly enforces executor confinement. Functions annotated with
// a //dpulint:executor line in their doc comment (kernel.CallSync,
// RegisterFlusher, SetPeers, ...) touch executor-owned state without
// locks and are safe only on the kernel's executor goroutine. The
// analyzer computes the set of functions whose bodies are known to run
// in executor context and flags any call to an annotated function from
// outside that set, and any `go` statement that launches one onto a
// fresh goroutine.
//
// Executor context is seeded by axioms and grown by propagation:
//
//   - annotated functions themselves (they can only be entered from the
//     executor, so their bodies inherit the context);
//   - HandleRequest/HandleIndication/Start/Stop methods on types that
//     implement the kernel Module interface (the kernel invokes them
//     from the drain loop);
//   - function literals and method values passed to the Stack
//     scheduling methods (Do, DoSync, After, Every, NewTimer,
//     RegisterFlusher, Call, CallSync, Indicate, IndicateBatch),
//     including values reached through composite literals such as
//     rp2p.Listen{Handler: m.onRecv};
//   - function values passed to the kernel's newExecutor constructor:
//     the executor invokes them only from its drain loop, on the
//     stack's executor goroutine, so the task runner and post-batch
//     flusher are executor context by axiom;
//   - transitively: an unexported function whose every direct call site
//     sits inside an executor-context function and whose address never
//     escapes. Exported functions are never inferred — callers in other
//     packages are invisible here, so inference would be unsound;
//     annotate them instead.
var ExecutorOnly = &lint.Analyzer{
	Name: "executoronly",
	Doc:  "functions annotated //dpulint:executor may only be called from executor-context functions",
	Run:  runExecutorOnly,
}

// ExecutorDirective is the doc-comment annotation marking a function as
// executor-only.
const ExecutorDirective = "//dpulint:executor"

// stackSchedulers are the *kernel.Stack methods whose function-valued
// arguments run on the executor. IndicateBatch is the batched twin of
// Indicate: handler values carried inside its indication slice are
// dispatched from the same drain loop.
var stackSchedulers = []string{
	"Do", "DoSync", "After", "Every", "NewTimer", "RegisterFlusher", "Call",
	"CallSync", "Indicate", "IndicateBatch",
}

// execFacts is the gob-serialized cross-package fact: the FullNames of
// this package's annotated (restricted) functions.
type execFacts struct {
	Restricted []string
}

// moduleMethods are the kernel.Module methods whose bodies run on the
// executor goroutine.
var moduleMethods = map[string]bool{
	"HandleRequest": true, "HandleIndication": true, "Start": true, "Stop": true,
}

// moduleInterface is the duck profile of kernel.Module: a receiver type
// carrying all of these methods is treated as a module.
var moduleInterface = []string{
	"ID", "Protocol", "HandleRequest", "HandleIndication", "Start", "Stop",
}

func runExecutorOnly(pass *lint.Pass) error {
	st := &execState{
		pass:      pass,
		annotated: make(map[*types.Func]bool),
		execFuncs: make(map[*types.Func]bool),
		execLits:  make(map[*ast.FuncLit]bool),
		litOfVar:  make(map[*types.Var]*ast.FuncLit),
		sites:     make(map[*types.Func][]callSite),
		escaped:   make(map[*types.Func]bool),
	}
	st.collectAnnotations()
	st.collectModuleHandlers()
	st.collectVarLiterals()
	st.collectScheduledValues()
	st.collectCallSites()
	st.propagate()
	st.exportFacts()
	st.reportViolations()
	return nil
}

// callSite is one direct call of a package-local function: where it
// happens and whether it is the operand of a `go` statement.
type callSite struct {
	enclosing ast.Node // *ast.FuncDecl or *ast.FuncLit, nil at package scope
	call      *ast.CallExpr
	inGo      bool
}

type execState struct {
	pass      *lint.Pass
	annotated map[*types.Func]bool
	execFuncs map[*types.Func]bool
	execLits  map[*ast.FuncLit]bool
	litOfVar  map[*types.Var]*ast.FuncLit
	sites     map[*types.Func][]callSite
	escaped   map[*types.Func]bool
}

// collectAnnotations finds //dpulint:executor doc comments. Annotated
// functions are restricted and their bodies are executor context.
func (st *execState) collectAnnotations() {
	for _, f := range st.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == ExecutorDirective {
					if fn, ok := st.pass.Info.Defs[fd.Name].(*types.Func); ok {
						st.annotated[fn] = true
						st.execFuncs[fn] = true
					}
				}
			}
		}
	}
}

// collectModuleHandlers marks HandleRequest/HandleIndication/Start/Stop
// methods on types whose (pointer) method set carries the full
// kernel.Module profile.
func (st *execState) collectModuleHandlers() {
	for _, f := range st.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !moduleMethods[fd.Name.Name] {
				continue
			}
			fn, ok := st.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			rt := recv.Type()
			if _, isPtr := rt.(*types.Pointer); !isPtr {
				rt = types.NewPointer(rt)
			}
			mset := types.NewMethodSet(rt)
			isModule := true
			for _, name := range moduleInterface {
				if lookupMethod(mset, name) == nil {
					isModule = false
					break
				}
			}
			if isModule {
				st.execFuncs[fn] = true
			}
		}
	}
}

func lookupMethod(mset *types.MethodSet, name string) *types.Selection {
	for i := 0; i < mset.Len(); i++ {
		if mset.At(i).Obj().Name() == name {
			return mset.At(i)
		}
	}
	return nil
}

// collectVarLiterals maps variables initialized from a single function
// literal (fn := func() {...}) to that literal, so passing the variable
// to a scheduler marks the literal's body.
func (st *execState) collectVarLiterals() {
	for _, f := range st.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := st.pass.Info.Defs[id]
				if obj == nil {
					obj = st.pass.Info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok {
					if _, dup := st.litOfVar[v]; dup {
						delete(st.litOfVar, v) // reassigned: ambiguous, drop
					} else {
						st.litOfVar[v] = lit
					}
				}
			}
			return true
		})
	}
}

// collectScheduledValues marks function values passed to the Stack
// scheduling methods — and to the kernel's executor constructor — as
// executor context.
func (st *execState) collectScheduledValues() {
	for _, f := range st.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(st.pass.Info, call)
			if !isKernelStackMethod(callee, stackSchedulers...) && !isExecutorConstructor(callee) {
				return true
			}
			for _, arg := range call.Args {
				st.markScheduled(arg)
			}
			return true
		})
	}
}

// isExecutorConstructor reports whether callee is the kernel's internal
// newExecutor constructor (or a fixture stand-in): the executor invokes
// its function-valued arguments — the task runner and the post-batch
// flusher — only from the drain loop, on the stack's executor
// goroutine, never concurrently. They are therefore executor context by
// axiom.
func isExecutorConstructor(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || f.Name() != "newExecutor" {
		return false
	}
	p := f.Pkg().Path()
	return p == "internal/kernel" || strings.HasSuffix(p, "/internal/kernel") ||
		strings.HasPrefix(p, "fixture/")
}

// markScheduled recursively marks function values inside a scheduler
// argument: literals, named functions, method values, and any of those
// nested in composite literals (e.g. Listen{Handler: m.onRecv}).
func (st *execState) markScheduled(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		st.execLits[e] = true
	case *ast.Ident:
		switch obj := st.pass.Info.Uses[e].(type) {
		case *types.Func:
			st.execFuncs[obj] = true
		case *types.Var:
			if lit := st.litOfVar[obj]; lit != nil {
				st.execLits[lit] = true
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := st.pass.Info.Uses[e.Sel].(*types.Func); ok {
			st.execFuncs[fn] = true
		}
	case *ast.UnaryExpr:
		st.markScheduled(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				st.markScheduled(kv.Value)
			} else {
				st.markScheduled(elt)
			}
		}
	}
}

// collectCallSites records, for every package-local function, each
// direct call (with enclosing function and go-statement flag) and
// whether its value escapes (referenced outside callee position and
// outside scheduler arguments).
func (st *execState) collectCallSites() {
	for _, f := range st.pass.Files {
		var stack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if id, ok := n.(*ast.Ident); ok {
				fn, ok := st.pass.Info.Uses[id].(*types.Func)
				if ok && fn.Pkg() == st.pass.Pkg {
					st.recordUse(id, fn, stack)
				}
			}
			return true
		}
		// ast.Inspect pushes on entry and signals exit with nil.
		ast.Inspect(f, walk)
	}
}

// recordUse classifies one identifier use of a package-local function.
func (st *execState) recordUse(id *ast.Ident, fn *types.Func, stack []ast.Node) {
	// stack[len-1] == id. The node above may be the selector wrapping a
	// method reference; the one above that the call.
	i := len(stack) - 2
	if i >= 0 {
		if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == id {
			i--
		}
	}
	var call *ast.CallExpr
	if i >= 0 {
		if c, ok := stack[i].(*ast.CallExpr); ok && ast.Unparen(c.Fun) == stack[i+1] {
			call = c
		}
	}
	if call == nil {
		// Not a direct call. A reference inside a scheduler argument was
		// already classified; any other reference makes the context of
		// eventual calls unknowable.
		if !st.execFuncs[fn] {
			st.escaped[fn] = true
		}
		return
	}
	inGo := false
	if i > 0 {
		if g, ok := stack[i-1].(*ast.GoStmt); ok && g.Call == call {
			inGo = true
		}
	}
	st.sites[fn] = append(st.sites[fn], callSite{
		enclosing: enclosingFunc(stack[:i]),
		call:      call,
		inGo:      inGo,
	})
}

// enclosingFunc returns the innermost FuncDecl or FuncLit on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// propagate grows the executor set to its greatest fixed point over the
// package-local call graph: an unexported, non-escaped function all of
// whose call sites are executor-context (and none a `go` launch) is
// executor-context too.
func (st *execState) propagate() {
	candidates := make(map[*types.Func]bool)
	for fn, sites := range st.sites {
		if fn.Exported() || st.execFuncs[fn] || st.escaped[fn] || len(sites) == 0 {
			continue
		}
		candidates[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for fn := range candidates {
			for _, site := range st.sites[fn] {
				if site.inGo || !st.nodeIsExec(site.enclosing, candidates) {
					delete(candidates, fn)
					changed = true
					break
				}
			}
		}
	}
	for fn := range candidates {
		st.execFuncs[fn] = true
	}
}

// nodeIsExec reports whether the function node is executor context,
// counting still-live propagation candidates as tentatively executor.
func (st *execState) nodeIsExec(node ast.Node, candidates map[*types.Func]bool) bool {
	switch node := node.(type) {
	case *ast.FuncDecl:
		fn, ok := st.pass.Info.Defs[node.Name].(*types.Func)
		if !ok {
			return false
		}
		return st.execFuncs[fn] || candidates[fn]
	case *ast.FuncLit:
		return st.execLits[node]
	default:
		return false
	}
}

// exportFacts publishes the restricted set for importing packages.
func (st *execState) exportFacts() {
	if len(st.annotated) == 0 {
		return
	}
	var facts execFacts
	for fn := range st.annotated {
		facts.Restricted = append(facts.Restricted, fn.FullName())
	}
	sortStrings(facts.Restricted)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(facts); err == nil {
		st.pass.ExportFact(buf.Bytes())
	}
}

// isRestricted reports whether fn carries //dpulint:executor, locally
// or via an imported package's facts.
func (st *execState) isRestricted(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg() == st.pass.Pkg {
		return st.annotated[fn]
	}
	blob := st.pass.ImportFact(fn.Pkg().Path())
	if blob == nil {
		return false
	}
	var facts execFacts
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&facts); err != nil {
		return false
	}
	full := fn.FullName()
	for _, r := range facts.Restricted {
		if r == full {
			return true
		}
	}
	return false
}

// reportViolations flags calls to restricted functions from outside
// executor context and `go` launches of them from anywhere.
func (st *execState) reportViolations() {
	for _, f := range st.pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(st.pass.Info, call)
			if !st.isRestricted(fn) {
				return true
			}
			inGo := false
			if len(stack) >= 2 {
				if g, ok := stack[len(stack)-2].(*ast.GoStmt); ok && g.Call == call {
					inGo = true
				}
			}
			st.checkRestrictedCall(fn, call, stack[:len(stack)-1], inGo)
			return true
		})
	}
}

func (st *execState) checkRestrictedCall(fn *types.Func, call *ast.CallExpr, outer []ast.Node, inGo bool) {
	if inGo {
		st.pass.Report(lint.Diagnostic{
			Pos: call.Pos(),
			Message: fmt.Sprintf(
				"%s is executor-only (//dpulint:executor) but is launched on a new goroutine; schedule it with Stack.Do/After instead",
				fn.Name()),
		})
		return
	}
	encl := enclosingFunc(outer)
	if st.nodeIsExec(encl, nil) {
		return
	}
	st.pass.Report(lint.Diagnostic{
		Pos: call.Pos(),
		Message: fmt.Sprintf(
			"%s is executor-only (//dpulint:executor): call it from a module handler or a task scheduled on the stack, not from %s",
			fn.Name(), describeContext(st.pass, encl)),
	})
}

// describeContext names the offending context for the diagnostic.
func describeContext(pass *lint.Pass, node ast.Node) string {
	switch node := node.(type) {
	case *ast.FuncDecl:
		return node.Name.Name
	case *ast.FuncLit:
		return "a function literal of unknown context"
	default:
		return "package scope"
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
