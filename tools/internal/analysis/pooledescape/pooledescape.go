// Package pooledescape defines an analyzer that checks the lifecycle of
// pooled buffers: scene capture buffers (Scene.CaptureImage and
// Sky.Capture → ReleaseCapture), scene skies (Scene.Sky → ReleaseSky),
// codec scratch arenas (getScratch → release, getPlaneBuf →
// putPlaneBuf), and any sync.Pool Get/Put pair.
//
// Pooled memory is recycled: content becomes garbage the moment it is
// released, and a buffer that is never released silently degrades the
// pool back to per-call allocation (the codec hot path's 1-alloc/op
// contract). The analyzer enforces two rules per function:
//
//   - use-after-release: once a statement releases a value (ReleaseX(v),
//     pool.Put(v), v.release()), no later statement in the same block may
//     mention it;
//   - release-on-every-path: a value acquired from a pool must, on every
//     control-flow path to a return, either be released (including by a
//     registered defer or cleanup closure) or be handed off whole —
//     returned, stored, sent on a channel, or passed as a complete
//     argument to another function, which transfers the release
//     obligation to the receiver. Accessing only a field (cap.Image) is
//     not a hand-off, so a function that uses cap.Image and forgets
//     ReleaseCapture(cap) on an error path is flagged.
//
// Deliberate exceptions carry a //lint:pooled <reason> comment on the
// flagged line or the line above.
package pooledescape

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"

	"earthplus/tools/internal/analysis/lintcomment"
)

// DefaultAcquirers are the repo's pooled-buffer constructors. sync.Pool
// Get calls are recognised by type and need no listing.
const DefaultAcquirers = "CaptureImage,Sky,Capture,getScratch,getTileScratch,getPlaneBuf,getImage,getF32,getMask"

var acquirers string

var Analyzer = &analysis.Analyzer{
	Name: "pooledescape",
	Doc:  "check pooled buffers (scene captures, codec scratch, sync.Pool values) for use-after-release and missing release on some path",
	Run:  run,
}

func init() {
	Analyzer.Flags.StringVar(&acquirers, "acquire", DefaultAcquirers,
		"comma-separated function/method names whose results are pool-owned")
}

func run(pass *analysis.Pass) (interface{}, error) {
	names := map[string]bool{}
	for _, n := range strings.Split(acquirers, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names[n] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body, names)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body, names)
			}
			return true
		})
	}
	return nil, nil
}

// acquire is one tracked pooled value: the object bound and the statement
// that bound it.
type acquire struct {
	obj  types.Object
	stmt ast.Stmt
	call *ast.CallExpr
}

// checkFunc runs both rules over one function body. Nested function
// literals are analyzed as their own units by the caller; their bodies are
// skipped when collecting this unit's acquires but ARE searched when
// deciding whether a statement releases or consumes a value (a cleanup
// closure that Puts a buffer discharges the obligation at its definition).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, names map[string]bool) {
	parents := buildParents(body)
	acquires := collectAcquires(pass, body, names)
	acquired := map[types.Object]bool{}
	for _, a := range acquires {
		acquired[a.obj] = true
	}
	if len(acquires) > 0 {
		g := cfg.New(body, mayReturn)
		for _, a := range acquires {
			checkReleasedOnAllPaths(pass, g, a, parents)
		}
	}
	checkUseAfterRelease(pass, body, acquired)
}

// collectAcquires finds `v := acquireCall()` bindings at any statement of
// the unit outside nested function literals.
func collectAcquires(pass *analysis.Pass, body *ast.BlockStmt, names map[string]bool) []acquire {
	var out []acquire
	walkSkipFuncLit(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			call := acquireCall(pass, rhs, names)
			if call == nil {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				out = append(out, acquire{obj: obj, stmt: as, call: call})
			}
		}
	})
	return out
}

// acquireCall unwraps parens and type assertions and reports the acquire
// call underneath, if any: a call to a configured name, or sync.Pool.Get.
func acquireCall(pass *analysis.Pass, e ast.Expr, names map[string]bool) *ast.CallExpr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return nil
			}
			if name := calleeName(call); names[name] {
				return call
			}
			if isPoolMethod(pass, call, "Get") {
				return call
			}
			return nil
		}
	}
}

// calleeName returns the rightmost identifier of the call target.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isPoolMethod reports whether call invokes the named method on a
// sync.Pool (or *sync.Pool) receiver.
func isPoolMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

// fate classifies what one statement does to a tracked object.
type fate int

const (
	neutral  fate = iota
	released      // a release call names the object (anywhere, incl. closures/defers)
	escaped       // the object is consumed whole: returned, stored, sent, passed as an argument
	killed        // the object is reassigned
)

// classify resolves the strongest fate of obj within node n.
func classify(pass *analysis.Pass, n ast.Node, obj types.Object, parents map[ast.Node]ast.Node) fate {
	f := neutral
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if ok && isReleaseOf(pass, call, obj) {
			f = released
			return false
		}
		return true
	})
	if f == released {
		return f
	}
	ast.Inspect(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != obj {
			return true
		}
		switch use(id, parents) {
		case escaped:
			f = escaped
		case killed:
			if f != escaped {
				f = killed
			}
		}
		return true
	})
	return f
}

// isReleaseOf reports whether call releases obj: ReleaseX(.., obj, ..),
// pool.Put(obj), or obj.release()/obj.Release().
func isReleaseOf(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	name := calleeName(call)
	releaseName := name == "release" || strings.HasPrefix(name, "Release") ||
		(name == "Put" && isPoolMethod(pass, call, "Put"))
	if releaseName {
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				return true
			}
		}
	}
	// Receiver style releases the receiver only when the method takes no
	// arguments: s.release() frees s, but s.ReleaseImage(im) frees im.
	if len(call.Args) == 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if name == "release" || strings.HasPrefix(name, "Release") {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					return true
				}
			}
		}
	}
	return false
}

// use decides how a single identifier occurrence treats the value: plain
// read (neutral), whole-value consumption (escaped), or overwrite
// (killed). Unknown contexts count as consumption so the leak rule errs
// toward silence.
func use(id *ast.Ident, parents map[ast.Node]ast.Node) fate {
	var child ast.Node = id
	p := parents[id]
	for {
		if pp, ok := p.(*ast.ParenExpr); ok {
			child = p
			p = parents[pp]
			continue
		}
		break
	}
	switch pp := p.(type) {
	case *ast.SelectorExpr:
		if pp.X == child {
			return neutral // v.Field — a read, not a hand-off
		}
	case *ast.IndexExpr:
		if pp.X == child {
			return neutral // v[i]
		}
	case *ast.SliceExpr:
		if pp.X == child {
			return neutral // v[lo:hi]
		}
	case *ast.StarExpr:
		return neutral // *v
	case *ast.BinaryExpr:
		return neutral // comparisons and arithmetic read the value
	case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.CaseClause, *ast.IncDecStmt:
		return neutral
	case *ast.RangeStmt:
		if pp.X == child {
			return neutral // ranging reads the buffer
		}
		return killed // the loop rebinds v as key/value
	case *ast.AssignStmt:
		for _, l := range pp.Lhs {
			if l == child {
				return killed
			}
		}
		return escaped // RHS whole value: alias or store
	case *ast.CallExpr:
		if pp.Fun == child {
			return neutral // calling v itself
		}
		return escaped // whole-value argument: obligation transfers
	}
	return escaped
}

// checkReleasedOnAllPaths walks the CFG from the acquire statement and
// reports when some path reaches an exit with the value still live.
func checkReleasedOnAllPaths(pass *analysis.Pass, g *cfg.CFG, a acquire, parents map[ast.Node]ast.Node) {
	startB, startI := -1, -1
	for bi, b := range g.Blocks {
		for ni, n := range b.Nodes {
			if n == a.stmt {
				startB, startI = bi, ni
			}
		}
	}
	if startB < 0 {
		return // statement position not modeled (e.g. select comms); skip
	}
	type frame struct {
		b *cfg.Block
		i int
	}
	stack := []frame{{g.Blocks[startB], startI + 1}}
	seen := map[*cfg.Block]bool{}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		discharged := false
		for i := fr.i; i < len(fr.b.Nodes); i++ {
			if classify(pass, fr.b.Nodes[i], a.obj, parents) != neutral {
				discharged = true
				break
			}
		}
		if discharged {
			continue
		}
		// A leak needs a *returning* exit: blocks cut short by panic or
		// an os.Exit-style call carry no release obligation.
		if len(fr.b.Succs) == 0 && fr.b.Live && fr.b.Return() != nil {
			if !lintcomment.Suppressed(pass.Fset, pass.Files, a.stmt.Pos(), "pooled") {
				pass.Report(analysis.Diagnostic{
					Pos: a.stmt.Pos(),
					Message: fmt.Sprintf(
						"pooled value %s from %s is not released on every path: call its Release/Put (or hand it off whole), or annotate with //lint:pooled <reason>",
						a.obj.Name(), calleeName(a.call)),
				})
			}
			return // one report per acquire
		}
		for _, s := range fr.b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, 0})
			}
		}
	}
}

// checkUseAfterRelease scans every block of the unit linearly: after a
// direct (non-deferred, non-closure, non-nested) release of a local
// variable, a later statement in the same block must not mention it.
// Argument-style releases (ReleaseCapture(c), pool.Put(b)) are tracked
// for any local; receiver-style ones (s.release()) only for variables
// acquired from a pool in this unit, so unrelated release/Release methods
// — semaphores, locks — never start tracking.
func checkUseAfterRelease(pass *analysis.Pass, body *ast.BlockStmt, acquired map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		releasedAt := map[types.Object]token.Pos{}
		for _, st := range blk.List {
			if _, isDefer := st.(*ast.DeferStmt); isDefer {
				continue
			}
			// Uses first: a statement that both mentions and re-releases is
			// reported once as a use.
			for obj := range releasedAt {
				if mentionsOutsideFuncLit(pass, st, obj) {
					if reassigns(pass, st, obj) {
						delete(releasedAt, obj)
						continue
					}
					if !lintcomment.Suppressed(pass.Fset, pass.Files, st.Pos(), "pooled") {
						pass.Report(analysis.Diagnostic{
							Pos: st.Pos(),
							Message: fmt.Sprintf(
								"use of %s after its release: pooled buffers are recycled (and may be concurrently reused) once released",
								obj.Name()),
						})
					}
					delete(releasedAt, obj)
				}
			}
			walkShallow(st, func(c ast.Node) {
				call, ok := c.(*ast.CallExpr)
				if !ok {
					return
				}
				for _, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isLocalVar(obj) && isReleaseOf(pass, call, obj) {
							releasedAt[obj] = call.Pos()
						}
					}
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil && acquired[obj] && isReleaseOf(pass, call, obj) {
							releasedAt[obj] = call.Pos()
						}
					}
				}
			})
		}
		return true
	})
}

// isLocalVar reports whether obj is a function-local variable (including
// parameters) — package-level state is out of scope for block-local
// use-after-release tracking.
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Parent() != nil && v.Parent() != v.Pkg().Scope()
}

// mentionsOutsideFuncLit reports whether st references obj lexically,
// ignoring nested closures (which run later, under their own discipline).
func mentionsOutsideFuncLit(pass *analysis.Pass, st ast.Stmt, obj types.Object) bool {
	found := false
	walkSkipFuncLit(st, func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
	})
	return found
}

// reassigns reports whether st binds obj a fresh value.
func reassigns(pass *analysis.Pass, st ast.Stmt, obj types.Object) bool {
	as, ok := st.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			return true
		}
	}
	return false
}

// walkSkipFuncLit visits every node under n except nested *ast.FuncLit
// subtrees.
func walkSkipFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		if c != nil {
			fn(c)
		}
		return true
	})
}

// walkShallow additionally skips nested *ast.BlockStmt subtrees: a
// release inside an if/for body is conditional from the enclosing
// block's point of view and is handled when that inner block is scanned.
func walkShallow(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			fn(c)
			return true
		}
		switch c.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			return false
		}
		if c != nil {
			fn(c)
		}
		return true
	})
}

// buildParents records each node's parent for context-sensitive use
// classification.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
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

// mayReturn treats aborting calls (panic, os.Exit, log.Fatal*, testing
// Fatal*) as non-returning so their paths need no release.
func mayReturn(call *ast.CallExpr) bool {
	switch name := calleeName(call); name {
	case "panic", "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
		return false
	}
	return true
}
