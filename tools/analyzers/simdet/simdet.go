// Package simdet polices the determinism contract of the FractOS
// simulation: two runs of the same configuration must produce
// bit-identical event orders and metrics (internal/exp's determinism
// test). Nondeterminism creeps in through five holes, each of which
// this analyzer closes:
//
//  1. Wall-clock reads: time.Now / time.Since / time.Sleep / time.After
//     make virtual-time behavior depend on host speed. The simulator
//     clock (sim.Kernel.Now, Task.Sleep) must be used instead.
//  2. The global math/rand source: it is shared, seeded from entropy
//     (or reseeded by other code), and not replayable. Randomness must
//     come from seeded rand.New(rand.NewSource(seed)) instances, e.g.
//     sim.Kernel.Rand.
//  3. Raw goroutines: a `go` statement escapes the cooperative
//     scheduler, racing against kernel tasks. Only the kernel package
//     itself (internal/sim) may create goroutines — that is the
//     trampoline every Task runs on. Everything else must use
//     sim.Kernel.Spawn.
//  4. Map iteration feeding message or scheduling order: ranging over
//     a map and sending/spawning/completing inside the loop makes
//     delivery order depend on Go's randomized map iteration. Keys
//     must be collected and sorted first (see Controller.sortedPeers).
//  5. Retained kernel RNG: stashing sim.Kernel.Rand() in a struct
//     field or package variable lets the stream leak across kernel
//     boundaries — into a later run, or into another kernel running
//     in the same process — so a draw's value depends on what other
//     code drew first. Call Rand() where the draw happens, or carry a
//     private seeded source.
//
// cmd/* packages are exempt: the CLI drivers legitimately measure
// wall-clock time around whole simulation runs. Individual findings
// can be waived with a `fractos:nondet-ok <reason>` comment on or
// above the offending line (realtime pacing in internal/sim is the
// canonical example).
package simdet

import (
	"go/ast"
	"go/types"
	"strings"

	"fractos/tools/analyzers/analysis"
	"fractos/tools/analyzers/astq"
)

// Analyzer is the simdet analysis.
var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Doc:  "forbid wall-clock, global rand, raw goroutines, and order-sensitive map iteration in simulator-driven code",
	Run:  run,
}

// suppression is the waiver marker.
const suppression = "fractos:nondet-ok"

// wallClockFuncs are the time package entry points that read or wait
// on the host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seededRandFuncs are the only math/rand entry points allowed: they
// construct explicitly seeded, private sources.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// orderSinks are call names whose invocation order is observable in
// the simulation: message transmission, task scheduling, completion
// delivery, future resolution. Ranging over a map and calling one of
// these per element publishes Go's randomized map order into the
// event stream.
var orderSinks = map[string]bool{
	"Send": true, "TrySend": true, "Spawn": true, "After": true,
	"call": true, "callF": true, "complete": true, "sendDeliver": true,
	"notifyWatcher": true, "Set": true, "Fail": true, "Signal": true,
	"wakeAfter": true, "Deliver": true, "Invoke": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/") {
		return nil, nil
	}
	inSim := strings.Contains(path, "internal/sim")

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				if !inSim && !pass.Suppressed(n.Pos(), suppression) {
					pass.Reportf(n.Pos(),
						"raw goroutine escapes the deterministic kernel; use sim.Kernel.Spawn (or move the code into internal/sim)")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.AssignStmt:
				checkRetainedRand(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// isKernelMethodCall reports whether call is a method invocation named
// name on a value of (pointer to) a type called Kernel.
func isKernelMethodCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Kernel"
}

// checkRetainedRand flags assignments that stash Kernel.Rand() in a
// struct field or package variable (hole 5): the retained stream
// outlives the kernel context the draw order depends on.
func checkRetainedRand(pass *analysis.Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isKernelMethodCall(pass.TypesInfo, call, "Rand") {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		retained := false
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.SelectorExpr:
			retained = true // field (or foreign-package var) assignment
		case *ast.Ident:
			if obj := pass.TypesInfo.ObjectOf(lhs); obj != nil && obj.Pkg() != nil &&
				obj.Parent() == obj.Pkg().Scope() {
				retained = true // package-level variable
			}
		}
		if retained && !pass.Suppressed(as.Pos(), suppression) {
			pass.Reportf(as.Pos(),
				"Kernel.Rand() retained beyond its call site; the stream leaks across kernel boundaries — draw at the use site or carry a seeded private source")
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg := astq.PackageOfCall(pass.TypesInfo, call)
	name := astq.CalleeName(call)
	switch pkg {
	case "time":
		if wallClockFuncs[name] && !pass.Suppressed(call.Pos(), suppression) {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; simulation code must use the kernel's virtual clock (sim.Task.Now/Sleep)", name)
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[name] && !pass.Suppressed(call.Pos(), suppression) {
			pass.Reportf(call.Pos(),
				"rand.%s uses the global math/rand source; use a seeded rand.New(rand.NewSource(seed)) (e.g. sim.Kernel.Rand)", name)
		}
	}
}

// checkMapRange flags ranging over a map when the loop body invokes
// an order-sensitive sink.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	if !astq.IsMap(pass.TypesInfo, rng.X) {
		return
	}
	var sink *ast.CallExpr
	var sinkName string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name := astq.CalleeName(call); orderSinks[name] {
				sink, sinkName = call, name
				return false
			}
		}
		return true
	})
	if sink == nil {
		return
	}
	if pass.Suppressed(rng.Pos(), suppression) || pass.Suppressed(sink.Pos(), suppression) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order feeds %s: delivery/scheduling order becomes nondeterministic; iterate over sorted keys instead", sinkName)
}
