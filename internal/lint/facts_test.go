package lint

import (
	"go/types"
	"testing"
)

// hasNamed reports whether the fact set contains an object with the
// given name.  Facts are keyed by types.Object, which tests cannot
// construct; matching by name against the real repo packages is the
// stable way to pin membership.
func hasNamed(facts map[types.Object]bool, name string) bool {
	for obj, ok := range facts {
		if ok && obj != nil && obj.Name() == name {
			return true
		}
	}
	return false
}

// TestCollectFactsMultiPackage loads two real packages in one program
// and checks the registry computed for each: the fixpoint facts of
// internal/core (failpoint sites, checkpointers, arena-owned shard
// lists) and the directive-backed hotpath marks of both, and the
// trivial accessors of internal/csr.  The checkpoint-field idiom has
// no caller left in the repository; the budgettick fixture covers it.
func TestCollectFactsMultiPackage(t *testing.T) {
	prog, err := Load("../..", "./internal/csr", "./internal/core")
	if err != nil {
		t.Fatalf("loading csr+core: %v", err)
	}
	all := CollectFacts(prog)
	csr, core := all["hyperplex/internal/csr"], all["hyperplex/internal/core"]
	if csr == nil || core == nil {
		t.Fatalf("CollectFacts keys = %v, want both csr and core", keysOf(all))
	}

	if _, ok := core.FailpointSites["core.sharded.exchange"]; !ok {
		t.Error("core facts missing failpoint site core.sharded.exchange")
	}
	// exchange injects the failpoint, the phases tick the meter, and
	// Shrink also checkpoints through testEdges, a same-package call.
	for _, fn := range []string{"exchange", "Apply", "testEdges", "Shrink"} {
		if !hasNamed(core.Checkpointers, fn) {
			t.Errorf("core checkpointer fixpoint missing %s", fn)
		}
	}
	// Loop-free accessors over builtins stay trivial.
	for _, fn := range []string{"NumVertices", "NumEdges", "VertexEdges"} {
		if !hasNamed(csr.Trivial, fn) {
			t.Errorf("csr trivial fixpoint missing accessor %s", fn)
		}
	}
	// A shard's work lists are carved from its one arena, so hotalloc
	// lets the phases' appends to them through.
	for _, f := range []string{"shrunk", "dying"} {
		if !hasNamed(core.ArenaOwned, f) {
			t.Errorf("shardPeel %s not arena-owned", f)
		}
	}

	for name, facts := range map[string]*PkgFacts{"core": core, "csr": csr} {
		marked := 0
		for _, lines := range facts.HotMarks {
			marked += len(lines)
		}
		if marked == 0 {
			t.Errorf("%s hotpath marks not collected", name)
		}
	}
}

// TestFactsForCrossPackage checks the cross-package resolution path an
// analyzer uses: a pass over internal/core asks for the facts of its
// internal/csr import and gets the same registry a direct load would
// compute, while stdlib imports resolve to nil.
func TestFactsForCrossPackage(t *testing.T) {
	prog, err := Load("../..", "./internal/core")
	if err != nil {
		t.Fatalf("loading core: %v", err)
	}
	if len(prog.Pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(prog.Pkgs))
	}
	pass := &Pass{Fset: prog.Fset, Pkg: prog.Pkgs[0], Prog: prog}

	if pass.FactsFor(prog.Pkgs[0].Types) != pass.Facts() {
		t.Error("FactsFor of the pass's own package is not its Facts()")
	}
	var csrT, stdT *types.Package
	for _, imp := range prog.Pkgs[0].Types.Imports() {
		switch {
		case imp.Path() == "hyperplex/internal/csr":
			csrT = imp
		case stdT == nil && !isModulePath(imp.Path()):
			stdT = imp
		}
	}
	if csrT == nil {
		t.Fatal("core no longer imports hyperplex/internal/csr; pick another import for this test")
	}
	facts := pass.FactsFor(csrT)
	if facts == nil {
		t.Fatal("FactsFor returned nil for a module-internal import")
	}
	if !hasNamed(facts.Trivial, "VertexEdges") {
		t.Error("cross-package csr facts missing the trivial accessor VertexEdges")
	}
	if facts != pass.FactsFor(csrT) {
		t.Error("FactsFor does not memoize: two calls returned different registries")
	}
	if stdT == nil {
		t.Fatal("core has no stdlib import to probe")
	}
	if pass.FactsFor(stdT) != nil {
		t.Errorf("FactsFor(%s) = non-nil, want nil for stdlib", stdT.Path())
	}
}

func isModulePath(p string) bool {
	return p == "hyperplex" || len(p) > len("hyperplex/") && p[:len("hyperplex/")] == "hyperplex/"
}

func keysOf(m map[string]*PkgFacts) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
