package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// The annotation grammar is one directive, effective on its own line
// and the line directly below it (so both trailing comments and a
// comment line above the statement work):
//
//	//lint:allow <analyzer> [<analyzer>...]
//	    Suppress findings of the named analyzers. The only sanctioned
//	    way to keep a violation; unused directives are themselves
//	    reported (see suppressDiags).

var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+(.+)$`)

// allowEntry is one //lint:allow directive for one analyzer name. The
// same entry backs both lines it covers, so a hit on either marks it
// used.
type allowEntry struct {
	name string
	pos  token.Position
	used bool
}

// directives indexes every //lint:allow directive in a package's
// scoped files.
type directives struct {
	// allow maps (file, line, analyzer) to the governing entry.
	allow map[allowKey]*allowEntry
	// entries lists unique allow entries in source order.
	entries []*allowEntry
}

type allowKey struct {
	file string
	line int
	name string
}

// scanDirectives indexes every directive. A directive on line L covers
// lines L and L+1.
func scanDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{allow: make(map[allowKey]*allowEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				for _, name := range strings.Fields(m[1]) {
					e := &allowEntry{name: name, pos: posn}
					d.entries = append(d.entries, e)
					d.allow[allowKey{posn.Filename, posn.Line, name}] = e
					d.allow[allowKey{posn.Filename, posn.Line + 1, name}] = e
				}
			}
		}
	}
	return d
}

// allowed reports whether a finding by analyzer name at posn is
// suppressed, marking the directive used.
func (d *directives) allowed(posn token.Position, name string) bool {
	e := d.allow[allowKey{posn.Filename, posn.Line, name}]
	if e == nil {
		return false
	}
	e.used = true
	return true
}

// SuppressName is the pseudo-analyzer name under which directive
// hygiene findings are reported. It is not suppressible: an unused
// suppression is fixed by deleting the directive, not by stacking
// another one on top.
const SuppressName = "suppress"

// suppressDiags audits the //lint:allow directives after a run:
// a directive naming an unknown analyzer is always reported (typos
// would otherwise silently suppress nothing), and a directive whose
// analyzer ran without a suppressed finding is dead weight that can
// hide a future regression. Only analyzers that actually ran are
// audited for use, so single-analyzer runs (golden tests, -run
// filters) never misreport directives belonging to the rest of the
// suite.
func suppressDiags(d *directives, ran map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, e := range d.entries {
		switch {
		case !known[e.name]:
			out = append(out, Diagnostic{
				Pos:      e.pos,
				Analyzer: SuppressName,
				Message:  fmt.Sprintf("%s: //lint:allow names unknown analyzer %q; known: %s", SuppressName, e.name, knownNames()),
			})
		case ran[e.name] && !e.used:
			out = append(out, Diagnostic{
				Pos:      e.pos,
				Analyzer: SuppressName,
				Message:  fmt.Sprintf("%s: unused suppression: no %s finding on this line — delete the stale //lint:allow", SuppressName, e.name),
			})
		}
	}
	return out
}

func knownNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
