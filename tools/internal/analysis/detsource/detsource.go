// Package detsource defines an analyzer that forbids wall-clock and
// entropy sources in the repo's deterministic packages.
//
// Everything the simulation records — codec output, uplink schedules,
// eviction decisions, fault outcomes — must be a pure function of its
// inputs and seeds, or runs stop being byte-identical across reruns and
// -simworkers counts. The only sanctioned wall-clock reads feed timings
// that never reach a sim.Record or its trace: sim.Outcome's EncodeSec,
// CloudSec and ChangeSec and the pipeline's reference-decode time behind
// core.System.DecodeWall, which the repo benchmark reads. Each of those
// sites carries a //lint:deterministic annotation naming the field it
// feeds.
//
// Flagged in scoped packages:
//
//   - time.Now, time.Since, time.Until (wall clock);
//   - package-level math/rand and math/rand/v2 functions (globally and
//     randomly seeded) — explicitly seeded *rand.Rand values built with
//     rand.New(rand.NewSource(seed)) remain allowed;
//   - anything from crypto/rand.
package detsource

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"earthplus/tools/internal/analysis/lintcomment"
)

// DefaultPackages are the deterministic packages: the engine, the codec
// stack, both halves of the link, and the constellation scheduler.
const DefaultPackages = "internal/sim,internal/codec,internal/sat,internal/station,internal/link,internal/constellation"

var packages string

var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "forbid wall-clock and entropy sources (time.Now, global rand) in deterministic packages",
	Run:  run,
}

func init() {
	Analyzer.Flags.StringVar(&packages, "packages", DefaultPackages,
		"comma-separated package path substrings the analyzer applies to")
}

// seededConstructors are the math/rand package-level functions that build
// explicitly-seeded generators instead of reading the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintcomment.PackageMatch(packages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			var why string
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					why = "reads the wall clock"
				}
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					why = "draws from the global (randomly seeded) rand source"
				}
			case "crypto/rand":
				why = "draws system entropy"
			}
			if why == "" {
				return true
			}
			if lintcomment.Suppressed(pass.Fset, pass.Files, call.Pos(), "deterministic") {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf(
					"%s.%s %s inside a deterministic package: derive the value from sim inputs/seeds, or annotate a documented timing field with //lint:deterministic <reason>",
					fn.Pkg().Path(), fn.Name(), why),
			})
			return true
		})
	}
	return nil, nil
}

// calleeFunc resolves the called function, looking through selectors and
// parens; nil when the callee is not a named function (built-ins,
// function-typed variables, type conversions).
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun // dot-imported or package-local
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
