package dlpsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
// synchronize): the SMs tick on the engine's goroutine, and eager
// generation, a runner batch and the corpus replay fan out through
// internal/trace's helper.
var noGoDirs = map[string]string{
	"internal/sm":        "the SMs tick on the engine's goroutine",
	"internal/workloads": "eager generation fans out through trace.FanOut",
	"internal/runner":    "a batch fans out through trace.FanOut",
	"cmd/conform":        "the corpus replay fans out through trace.FanOut",
}

// goFiles are the packages with sanctioned go statements, one in each
// file named: internal/trace's read-ahead helper, which fills a
// streamed run's next windows, and its fan-out, which builds a large
// eager kernel's warps, packs a large kernel, runs a runner batch and
// the corpus replay, and runs WriteFile's and Open's two tasks beside
// each other; the job server's worker loop; and dlpserved's HTTP
// server.
var goFiles = map[string][]string{
	"internal/trace": {"internal/trace/fanout.go", "internal/trace/readahead.go"},
	"internal/serve": {"internal/serve/serve.go"},
	"cmd/dlpserved":  {"cmd/dlpserved/main.go"},
}

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
// start no goroutine and import no sync package, internal/sm and
// internal/workloads start none, internal/trace has exactly two go
// statements, the read-ahead helper's and the fan-out's;
// and no per-binary profiler type comes back.
func TestHarnessOwnsTheExecutionFlags(t *testing.T) {
	owned := map[string]bool{}
	for _, name := range append(append([]string(nil), execFlags...), batchFlags...) {
		owned[name] = true
	}
	gos := map[string][]string{}      // goFiles package dir -> positions of its go statements
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
				if _, ok := goFiles[dir]; ok {
					gos[dir] = append(gos[dir], filepath.ToSlash(fset.Position(n.Pos()).String()))
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

	for dir, files := range goFiles {
		at := gos[dir]
		sort.Strings(at)
		ok := len(at) == len(files)
		for i := 0; ok && i < len(at); i++ {
			ok = strings.HasPrefix(at[i], files[i]+":")
		}
		if !ok {
			t.Errorf("%s starts goroutines at %v, want exactly one in each of %v", dir, at, files)
		}
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

// TestDesignInventoryNamesEveryPackage keeps DESIGN.md §3, the system
// inventory, in step with the tree: every directory under internal/,
// cmd/ and examples/ that holds non-test Go has exactly one row, and
// every row names such a directory (or the root package).
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "| ") || len(cells) < 3 || strings.TrimSpace(cells[1]) == "Package" {
			continue
		}
		name := strings.TrimSpace(cells[1])
		if name == "root package `dlpsim`" {
			name = "."
		}
		rows[strings.Trim(name, "`")]++
	}
	pkgs := map[string]bool{".": true}
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				pkgs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for pkg := range pkgs {
		if rows[pkg] != 1 {
			t.Errorf("%s has %d rows in DESIGN.md §3, want 1", pkg, rows[pkg])
		}
	}
	for name := range rows {
		if !pkgs[name] {
			t.Errorf("DESIGN.md §3 has a row for %s, which is no package of the tree", name)
		}
	}
}
