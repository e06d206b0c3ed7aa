package dlpsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// harnessFlags are the names internal/cli declares for the runner-backed
// commands (dlpsim, paperfigs, ablate): the exec group, then the batch
// group.
var harnessFlags = []string{
	"retries", "timeout", "selfcheck", "cores", "metrics", "metrics-every", "trace",
	"j", "keep-going", "quiet", "cpuprofile", "memprofile",
}

// ownFlags are the commands that are not runner clients of the harness
// and declare a flag of the same name with their own default and
// meaning (a server's admission budget, a corpus replay's pool, a
// single-cache replay's outputs, a linter's inputs, an HTTP client's
// per-request budget). Anything not listed here must come from
// internal/cli.
var ownFlags = map[string][]string{
	"cmd/conform":    {"j", "timeout"},
	"cmd/conffuzz":   {"cores", "timeout"},
	"cmd/dlpserved":  {"cores", "j", "retries", "selfcheck", "timeout"},
	"cmd/pdtrace":    {"metrics", "selfcheck", "timeout", "trace"},
	"cmd/rddprof":    {"cores"},
	"cmd/metriclint": {"metrics", "trace"},
	"cmd/dlpload":    {"timeout"},
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
// place: the twelve harness-owned names are declared once each in
// internal/cli and nowhere else in non-test Go, bar the listed
// commands whose same-named flags mean something else; the three
// runner-backed mains resolve -cores through the Session only; and no
// per-binary profiler type comes back.
func TestHarnessOwnsTheExecutionFlags(t *testing.T) {
	owned := map[string]bool{}
	for _, name := range harnessFlags {
		owned[name] = true
	}
	declared := map[string][]string{} // package dir -> harness-owned names it declares
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
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
		harnessClient := dir == "cmd/dlpsim" || dir == "cmd/paperfigs" || dir == "cmd/ablate"
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name := flagDecl(n); owned[name] {
					declared[dir] = append(declared[dir], name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "cli" && n.Sel.Name == "ResolveCores" &&
					(harnessClient || dir == "cmd/pdtrace") {
					t.Errorf("%s calls cli.ResolveCores directly", path)
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

	want := map[string][]string{"internal/cli": append([]string(nil), harnessFlags...)}
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
