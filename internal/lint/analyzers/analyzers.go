// Package analyzers holds the four project-specific checks run by
// cmd/dpu-lint: clocktime (clock discipline), maporder (deterministic
// iteration on emission paths), poolfree (pooled wire.Writer ownership)
// and executoronly (executor confinement of //dpulint:executor
// functions). docs/LINTING.md is the operator-facing catalogue; this
// package is the implementation.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// All returns the full analyzer suite in deterministic order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{Clocktime, MapOrder, PoolFree, ExecutorOnly}
}

// clockScoped lists the module-relative package paths (and path
// prefixes, for their subpackages) whose code runs under an injected
// vclock.Clock. Direct time.Now/timer use inside them desynchronizes
// virtual-time runs, so clocktime and maporder confine themselves to
// this set. internal/vclock itself is exempt: it is the one place
// allowed to touch the runtime clock.
var clockScoped = []string{
	"internal/kernel",
	"internal/simnet",
	"internal/fd",
	"internal/rp2p",
	"internal/abcast",
	"internal/rbcast",
	"internal/core",
	"internal/policy",
	"internal/consensus",
	"internal/gm",
	"internal/scenario",
	"internal/audit",
	"internal/transport",
	"dpu",
}

// inClockScope reports whether the package (by import path) is subject
// to the clock-discipline and map-order contracts. Fixture packages
// ("fixture/<analyzer>") are always in scope so the analyzer tests can
// exercise the checks outside the real tree.
func inClockScope(pkgPath string) bool {
	if strings.HasPrefix(pkgPath, "fixture/") {
		return true
	}
	for _, s := range clockScoped {
		if strings.HasSuffix(pkgPath, "/"+s) || pkgPath == s {
			return true
		}
	}
	return false
}

// usedPkgName resolves an identifier to the package it names, if it is
// the qualifier of a selector (e.g. the "time" in time.Now).
func usedPkgName(info *types.Info, id *ast.Ident) *types.PkgName {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj
	}
	return nil
}

// calleeFunc resolves the callee of a call expression to its *types.Func
// (methods included), or nil for indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isKernelStackMethod reports whether f is the named method on
// *kernel.Stack (any package whose path ends in internal/kernel, so the
// check also binds in fixture copies).
func isKernelStackMethod(f *types.Func, names ...string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(f.Pkg().Path(), "internal/kernel") {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Stack" {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isWireWriterMethod reports whether f is a method on wire.Writer.
func isWireWriterMethod(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || !strings.HasSuffix(f.Pkg().Path(), "internal/wire") {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Writer"
}

// isWireGetWriter reports whether the call is wire.GetWriter.
func isWireGetWriter(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Pkg() != nil &&
		strings.HasSuffix(f.Pkg().Path(), "internal/wire") &&
		f.Name() == "GetWriter" && f.Type().(*types.Signature).Recv() == nil
}
