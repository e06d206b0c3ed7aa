package dlpsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// execFlags and batchFlags are the two groups internal/cli declares for
// the runner-backed commands (dlpsim, paperfigs), in order.
var (
	execFlags  = []string{"timeout", "selfcheck", "metrics", "metrics-every", "trace"}
	batchFlags = []string{"j", "keep-going", "quiet", "cpuprofile", "memprofile"}
)

// ownFlags are the commands that are not runner clients of the harness
// and declare a flag of the same name with their own default and
// meaning (a server's admission budget, a corpus replay's pool).
// Anything not listed here must come from internal/cli.
var ownFlags = map[string][]string{
	"cmd/conform":   {"j", "timeout"},
	"cmd/conffuzz":  {"timeout"},
	"cmd/dlpserved": {"j", "selfcheck", "timeout"},
}

// retiredFlags are the flags of the deleted in-engine and RDD-replay
// parallelism, the deleted retry path, the deleted frontend choice
// (a single run streams, a suite packs) and the conffuzz knobs no
// caller set (three are constants in internal/confuzz; Policies and
// MaxFindings are Options only its tests set): the one directory
// allowed to declare each ("" for none).
var retiredFlags = map[string]string{
	"cores":          "",
	"extra-cores":    "",
	"retries":        "",
	"stream":         "",
	"degenerate-pct": "",
	"shrink-budget":  "",
	"max-findings":   "",
	"max-cycles":     "",
	"policies":       "",
}

// serialDirs are the packages that start no goroutine and import no
// sync package: the engine and the RDD replay. -j is the parallelism
// of a batch, and it lives in the runner.
var serialDirs = map[string]string{
	"internal/sim": "the engine runs on one goroutine",
	"internal/rdd": "the RDD replay runs on one goroutine",
}

// noGoDirs are the packages that start no goroutine (they may
// synchronize): the SMs tick on the engine's goroutine.
var noGoDirs = map[string]string{
	"internal/sm": "the SMs tick on the engine's goroutine",
}

// readAheadFile is the one file of internal/trace that starts a
// goroutine, and it starts exactly one: the helper that fills a
// streamed run's next windows.
const readAheadFile = "internal/trace/readahead.go"

// retiredFields are the settable values that had no caller: the retry
// budget and its attempt counts, the per-job deadline, the engine's
// background-traffic and injection-rate options (now constants in
// internal/sim), the server's Retry-After and history options (now
// constants in internal/serve), and the fuzzer's degenerate share and
// shrink budget (now constants in internal/confuzz). No non-test file
// outside bench/ may declare, select or set a field of these names.
var retiredFields = map[string]bool{
	"Retries": true, "MaxWall": true, "InjectionRate": true, "BackgroundFlitsPerKInsn": true,
	"RetryAfter": true, "History": true, "FailAttempts": true, "Attempts": true,
	"DegeneratePct": true, "ShrinkBudget": true,
}

// retiredNames are the deleted retry classifier and the fault kind that
// only its tests reached, the deleted parallel RDD replays, the
// registry sort that pinned every kernel, the BFS-only Fig. 7, the
// deferred store return the phase-parallel engine needed, and the
// crossbar's segment queue, the second experiment runner with its
// seven sweep wrappers (a sweep is a RunSuite call), the suite
// options struct whose frontend and scale fields no caller set (RunSuite
// takes its runner and applications), and the server's HTTP shutdown
// route (a signal drains the server); no non-test file outside bench/
// may name them.
var retiredNames = map[string]bool{
	"Transient": true, "IsTransient": true, "Flaky": true,
	"ProfileKernelCores": true, "ReuseMissRateCores": true, "SortedByRatio": true, "Fig7BFS": true,
	"Recycler": true, "SetRecycler": true, "DrainTo": true, "returnStores": true,
	"grabFree": true, "popHead": true, "openTail": true,
	"runAblation": true, "AblateSamplePeriod": true, "AblatePDBits": true, "AblateVTAWays": true,
	"AblateWarpLimit": true, "AblateATAWays": true, "AblateCCWSLifetime": true,
	"AblatePredictorDeadPeriods": true, "SuiteOptions": true, "handleShutdown": true,
}

// retiredCommands are the deleted mains whose work is done elsewhere:
// the ablation sweeps and the Fig. 9 PD trace are paperfigs experiments,
// the HTTP corpus replay is an in-process test of internal/serve, and
// the export linter is a root test that re-reads the exports itself.
var retiredCommands = map[string]string{
	"cmd/ablate":     "paperfigs -exp",
	"cmd/pdtrace":    "paperfigs -exp fig9",
	"cmd/dlpload":    "go test ./internal/serve -run TestCorpusOverHTTP",
	"cmd/metriclint": "go test . -run TestObservabilityExports",
}

// importNames returns the names a file's imports bind, so a qualified
// identifier such as sim.InjectionRate is not taken for a field.
func importNames(file *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if imp.Name != nil {
			names[imp.Name.Name] = true
		} else {
			names[path.Base(p)] = true
		}
	}
	return names
}

// flagDecl returns the flag name a call like flag.Int("j", …) or
// fs.IntVar(&v, "j", …) declares, or "" for any other call.
func flagDecl(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// The XVar(&v, name, …) forms — Var and TextVar among them — take
	// the name second.
	kind, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
	switch kind {
	case "", "Text", "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
	default:
		return ""
	}
	arg := 0
	if isVar {
		arg = 1
	}
	if arg >= len(call.Args) {
		return ""
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	name, _ := strconv.Unquote(lit.Value)
	return name
}

// TestHarnessOwnsTheExecutionFlags keeps the flag plumbing in one
// place and the engine serial: the harness-owned names are declared once
// each in internal/cli — ExecFlags and BatchFlags declare exactly their
// groups — and nowhere else in non-test Go, bar the listed commands
// whose same-named flags mean something else; no retired flag comes
// back, and no retired command directory; no non-test file outside
// bench/ names a Cores field or a retired field, or names a retired
// identifier; internal/sim and internal/rdd
// start no goroutine and import no sync package, internal/sm starts
// none, and internal/trace has exactly one go statement, the read-ahead
// helper's; and no per-binary profiler type comes back.
func TestHarnessOwnsTheExecutionFlags(t *testing.T) {
	owned := map[string]bool{}
	for _, name := range append(append([]string(nil), execFlags...), batchFlags...) {
		owned[name] = true
	}
	var traceGos []string             // positions of internal/trace's go statements
	declared := map[string][]string{} // package dir -> harness-owned names it declares
	groups := map[string][]string{}   // internal/cli group function -> names in order
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if by, ok := retiredCommands[filepath.ToSlash(path)]; ok {
				t.Errorf("%s is back; its work is %s", path, by)
			}
			// bench/ is a module of its own with its own flag vocabulary.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := importNames(file)
		if why, serial := serialDirs[dir]; serial {
			for _, imp := range file.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s imports %s; %s", path, p, why)
				}
			}
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && dir == "internal/cli" &&
				(fn.Name.Name == "ExecFlags" || fn.Name.Name == "BatchFlags") {
				ast.Inspect(fn, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if name := flagDecl(call); name != "" {
							groups[fn.Name.Name] = append(groups[fn.Name.Name], name)
						}
					}
					return true
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := flagDecl(n)
				if owned[name] {
					declared[dir] = append(declared[dir], name)
				}
				if owner, retired := retiredFlags[name]; retired && dir != owner {
					t.Errorf("%s declares the retired -%s flag", path, name)
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "Cores" {
					t.Errorf("%s names a Cores field", fset.Position(n.Pos()))
				}
				if x, ok := n.X.(*ast.Ident); retiredFields[n.Sel.Name] && !(ok && imports[x.Name]) {
					t.Errorf("%s selects the retired field %s", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "Cores" {
					t.Errorf("%s sets a Cores field", fset.Position(n.Pos()))
				}
				if k, ok := n.Key.(*ast.Ident); ok && retiredFields[k.Name] {
					t.Errorf("%s sets the retired field %s", fset.Position(n.Pos()), k.Name)
				}
			case *ast.Field:
				for _, name := range n.Names {
					if retiredFields[name.Name] {
						t.Errorf("%s declares the retired field %s", fset.Position(name.Pos()), name.Name)
					}
				}
			case *ast.Ident:
				if retiredNames[n.Name] {
					t.Errorf("%s names the retired %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.GoStmt:
				if _, serial := serialDirs[dir]; serial {
					t.Errorf("%s: %s starts a goroutine", fset.Position(n.Pos()), dir)
				}
				if why, ok := noGoDirs[dir]; ok {
					t.Errorf("%s: %s starts a goroutine; %s", fset.Position(n.Pos()), dir, why)
				}
				if dir == "internal/trace" {
					traceGos = append(traceGos, filepath.ToSlash(fset.Position(n.Pos()).String()))
				}
			case *ast.TypeSpec:
				if n.Name.Name == "profiler" && strings.HasPrefix(dir, "cmd/") {
					t.Errorf("%s declares a profiler type; profiles belong to cli.Session", path)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(traceGos) != 1 || !strings.HasPrefix(traceGos[0], readAheadFile+":") {
		t.Errorf("internal/trace starts goroutines at %v, want exactly one, in %s", traceGos, readAheadFile)
	}
	for fn, want := range map[string][]string{"ExecFlags": execFlags, "BatchFlags": batchFlags} {
		if got := groups[fn]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("cli.Session.%s declares [%s], want [%s]", fn, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
	want := map[string][]string{"internal/cli": append(append([]string(nil), execFlags...), batchFlags...)}
	for dir, names := range ownFlags {
		want[dir] = names
	}
	for dir := range declared {
		if _, ok := want[dir]; !ok {
			want[dir] = nil
		}
	}
	for dir, names := range want {
		got := declared[dir]
		sort.Strings(got)
		sort.Strings(names)
		if strings.Join(got, " ") != strings.Join(names, " ") {
			t.Errorf("%s declares harness-owned flags [%s], want [%s]",
				dir, strings.Join(got, " "), strings.Join(names, " "))
		}
	}
}
