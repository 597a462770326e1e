package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts the quoted expectations of a `// want "..." "..."`
// comment.
var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// expectation is one expected diagnostic: a regexp anchored to a line.
type expectation struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/src/<name>, runs the given analyzers, and
// compares the diagnostics against the fixture's `// want` comments.
// extra adds expectations that cannot be written as want comments
// because they anchor to a directive comment itself: each key must
// equal a whole trimmed source line, and its value is the expected
// message regexp for that line.
func runFixture(t *testing.T, name string, analyzers []*Analyzer, extra map[string]string) {
	t.Helper()
	prog, err := Load(".", "./"+filepath.ToSlash(filepath.Join("testdata", "src", name)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(prog.Pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", name, len(prog.Pkgs))
	}
	pkg := prog.Pkgs[0]

	var wants []*expectation
	for _, src := range pkg.Sources {
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					wants = append(wants, &expectation{line: i + 1, re: regexp.MustCompile(q[1])})
				}
			}
			if msg, ok := extra[strings.TrimSpace(line)]; ok {
				wants = append(wants, &expectation{line: i + 1, re: regexp.MustCompile(msg)})
			}
		}
	}
	if len(wants) == 0 && extra != nil {
		t.Fatalf("fixture %s: extra expectations matched no source line", name)
	}

	diags := RunSuite(prog, analyzers)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: line %d: expected diagnostic matching %q, got none", name, w.line, w.re)
		}
	}
}

func TestCtxPairFixture(t *testing.T) {
	runFixture(t, "ctxpair", []*Analyzer{CtxPair}, nil)
}

func TestCtxFirstFixture(t *testing.T) {
	runFixture(t, "ctxfirst", []*Analyzer{CtxFirst}, nil)
}

func TestFailpointSiteFixture(t *testing.T) {
	runFixture(t, "failpointsite", []*Analyzer{FailpointSite}, nil)
}

func TestGoRecoverFixture(t *testing.T) {
	runFixture(t, "gorecover", []*Analyzer{GoRecover}, nil)
}

func TestNoPanicFixture(t *testing.T) {
	runFixture(t, "nopanic", []*Analyzer{NoPanic}, nil)
}

func TestErrWrapFixture(t *testing.T) {
	runFixture(t, "errwrap", []*Analyzer{ErrWrap}, nil)
}

func TestBudgetTickFixture(t *testing.T) {
	runFixture(t, "budgettick", []*Analyzer{BudgetTick}, nil)
}

func TestInt32NarrowFixture(t *testing.T) {
	runFixture(t, "int32narrow", []*Analyzer{Int32Narrow}, nil)
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, "hotalloc", []*Analyzer{HotAlloc}, nil)
}

func TestWireDispatchFixture(t *testing.T) {
	runFixture(t, "wiredispatch", []*Analyzer{WireDispatch}, nil)
}

// TestSuppressFixture checks both suppression outcomes: well-formed
// directives silence the analyzer (Invariant and Trailing report
// nothing), while a directive missing its reason or naming an unknown
// analyzer suppresses nothing — the panic is still reported (want
// comments in the fixture) and the directive itself is diagnosed
// (extra expectations here, keyed by the exact directive line).
func TestSuppressFixture(t *testing.T) {
	runFixture(t, "suppress", []*Analyzer{NoPanic}, map[string]string{
		"//hyperplexvet:ignore nopanic":                    "malformed ignore directive",
		"//hyperplexvet:ignore nosuchlint because reasons": `unknown analyzer "nosuchlint"`,
	})
}

// TestSuppressCleanFixture proves a fully suppressed package reports
// nothing at all under the complete suite.
func TestSuppressCleanFixture(t *testing.T) {
	runFixture(t, "suppressclean", All(), nil)
}

// TestBrokenFixtureFailsToLoad pins the load-error path the CLI's
// exit-2 behavior relies on.
func TestBrokenFixtureFailsToLoad(t *testing.T) {
	_, err := Load(".", "./testdata/src/broken")
	if err == nil {
		t.Fatal("loading the broken fixture succeeded; want a type error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("load error does not name the package: %v", err)
	}
}
