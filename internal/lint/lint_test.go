package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"desiccant/internal/lint"
	"desiccant/internal/lint/driver"
)

// TestSimTime: wall clock, global rand, entropy, environment reads —
// plus the seeded-constructor and escape-hatch negatives.
func TestSimTime(t *testing.T) { runGolden(t, lint.SimTime, "simtime") }

// TestMapOrder: order-leaking appends, float accumulation, mid-loop
// emission — plus the collect-then-sort and keyed-write negatives.
func TestMapOrder(t *testing.T) { runGolden(t, lint.MapOrder, "maporder") }

// TestRawGo: raw goroutines and WaitGroups — plus the pool-file
// exemption (testdata's experiments/parallel.go must stay silent) and
// the escape hatch.
func TestRawGo(t *testing.T) { runGolden(t, lint.RawGo, "rawgo", "experiments") }

// TestRNGShare: closures handed to the pool capturing a shared
// *sim.RNG directly, via Fork, via a struct field, and via the
// package-local generic runIndexed — plus the fork-before-dispatch and
// task-local negatives.
func TestRNGShare(t *testing.T) { runGolden(t, lint.RNGShare, "rngshare", "experiments") }

// runGolden type-checks each fixture package under testdata/src and
// compares the analyzer's findings against its `// want` comments,
// analysistest-style: every finding must match a want on its line, and
// every want must be matched.
func runGolden(t *testing.T, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	loader := testdataLoader(t, pkgs)
	for _, path := range pkgs {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags, err := lint.RunAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, loader, pkg, a.Name, diags)
	}
}

// testdataLoader builds a hermetic loader whose package universe is
// exactly testdata/src: fixture packages plus the stdlib stubs they
// import. Nothing outside testdata is read, so fixtures type-check
// identically on any machine.
func testdataLoader(t *testing.T, full []string) *driver.Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]*driver.Source)
	err = filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		dir := filepath.Dir(path)
		importPath := filepath.ToSlash(strings.TrimPrefix(dir, root+string(filepath.Separator)))
		src := sources[importPath]
		if src == nil {
			src = &driver.Source{Path: importPath}
			sources[importPath] = src
		}
		src.Files = append(src.Files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return driver.NewLoader(sources, full)
}

type wantKey struct {
	file string
	line int
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// checkWants cross-checks findings against `// want` comments.
func checkWants(t *testing.T, loader *driver.Loader, pkg *driver.Package, analyzer string, diags []lint.Diagnostic) {
	t.Helper()
	type want struct {
		re      *regexp.Regexp
		matched bool
		posn    string
	}
	wants := make(map[wantKey][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				posn := loader.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(strings.TrimPrefix(text, "want "), -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					// Shared fixtures carry wants for several
					// analyzers; only this analyzer's are in play.
					if !strings.HasPrefix(pat, analyzer+":") {
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn, pat, err)
					}
					key := wantKey{posn.Filename, posn.Line}
					wants[key] = append(wants[key], &want{re: re, posn: fmt.Sprint(posn)})
				}
			}
		}
	}
	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected %s finding: %s", d.Pos, analyzer, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected finding matching %q, got none", w.posn, w.re)
			}
		}
	}
}

// TestAllowDirectiveScope pins the suppression contract: a directive
// covers its own line and the next, nothing else.
func TestAllowDirectiveScope(t *testing.T) {
	loader := testdataLoader(t, []string{"simtime"})
	pkg, err := loader.Load("simtime")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.Info, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.Message, "simtime:") {
			t.Errorf("unexpected non-simtime finding in simtime fixture: %s", d)
		}
	}
	// The fixture's legal() uses time.Now, time.Since, and time.Sleep
	// under annotations; none may leak through.
	for _, d := range diags {
		if d.Pos.Line > 40 { // legal() starts after the positive cases
			t.Errorf("finding inside annotated legal(): %s", d)
		}
	}
}

// TestAnalyzerMetadata keeps names unique and docs present — the names
// double as //lint:allow keys, so collisions would merge escape
// hatches.
func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.ToLower(a.Name) != a.Name || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be lowercase single token", a.Name)
		}
	}
}

// TestSuppressAudit pins the directive-hygiene contract: a consumed
// suppression is silent, an unconsumed one is stale only when its
// analyzer ran, and an unknown analyzer name is always an error.
func TestSuppressAudit(t *testing.T) {
	loader := testdataLoader(t, []string{"suppress"})
	pkg, err := loader.Load("suppress")
	if err != nil {
		t.Fatal(err)
	}
	run := func(as ...*lint.Analyzer) []lint.Diagnostic {
		t.Helper()
		diags, err := lint.RunAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.Info, as)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	count := func(diags []lint.Diagnostic, substr string) int {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				n++
			}
		}
		return n
	}

	withSimtime := run(lint.SimTime)
	if n := count(withSimtime, "simtime: time.Now"); n != 0 {
		t.Errorf("used suppression leaked %d simtime findings: %v", n, withSimtime)
	}
	if n := count(withSimtime, "unused suppression: no simtime finding"); n != 1 {
		t.Errorf("want exactly 1 stale-suppression finding, got %d: %v", n, withSimtime)
	}
	if n := count(withSimtime, `unknown analyzer "symtime"`); n != 1 {
		t.Errorf("want exactly 1 unknown-analyzer finding, got %d: %v", n, withSimtime)
	}

	// simtime did not run: its suppressions cannot be judged stale, but
	// the typo'd name is still wrong.
	withoutSimtime := run(lint.MapOrder)
	if n := count(withoutSimtime, "unused suppression"); n != 0 {
		t.Errorf("stale-suppression finding for an analyzer that never ran: %v", withoutSimtime)
	}
	if n := count(withoutSimtime, `unknown analyzer "symtime"`); n != 1 {
		t.Errorf("want exactly 1 unknown-analyzer finding, got %d: %v", n, withoutSimtime)
	}
}

// TestSanctionedConcurrencyTable keeps the rawgo allowlist declarative
// and self-documenting: every entry must name a .go file and say why
// that file may use raw concurrency.
func TestSanctionedConcurrencyTable(t *testing.T) {
	if len(lint.SanctionedConcurrency) == 0 {
		t.Fatal("sanctioned-concurrency table is empty; rawgo would flag the worker pool itself")
	}
	seen := make(map[string]bool)
	for _, s := range lint.SanctionedConcurrency {
		if s.PathSuffix == "" || !strings.HasSuffix(s.PathSuffix, ".go") {
			t.Errorf("entry %+v: PathSuffix must name a .go file", s)
		}
		if strings.TrimSpace(s.Reason) == "" {
			t.Errorf("entry %+v: every sanction needs a recorded reason", s)
		}
		if seen[s.PathSuffix] {
			t.Errorf("duplicate sanction for %s", s.PathSuffix)
		}
		seen[s.PathSuffix] = true
	}
}

// TestFixtureFilesInScope guards against a silent hole: if the golden
// fixtures were ever renamed to _test.go, the framework would skip
// them and every golden test would pass vacuously.
func TestFixtureFilesInScope(t *testing.T) {
	loader := testdataLoader(t, []string{"simtime"})
	pkg, err := loader.Load("simtime")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no fixture files loaded")
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, loader.Fset.Position(f.Pos()).Filename)
	}
	diags, err := lint.RunAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{lint.SimTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Errorf("simtime fixture produced no findings; files %v out of scope?", names)
	}
}
