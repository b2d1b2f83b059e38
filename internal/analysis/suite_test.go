package analysis

import (
	"path/filepath"
	"testing"
)

// fixturePkg gives fixtures an internal/ import path so path-scoped
// analyzers (ctxpolicy) treat them as library code.
const fixturePkg = "deepsketch/internal/fixture"

func fixtureDir(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestZeroAllocFixture(t *testing.T) {
	RunFixture(t, ZeroAlloc, fixturePkg, fixtureDir("zeroalloc"), "fixture.go")
}

func TestDurabilityFixture(t *testing.T) {
	RunFixture(t, Durability, fixturePkg, fixtureDir("durability"), "fixture.go")
}

func TestCtxPolicyFixture(t *testing.T) {
	RunFixture(t, CtxPolicy, fixturePkg, fixtureDir("ctxpolicy"), "fixture.go")
}

func TestLockGuardFixture(t *testing.T) {
	RunFixture(t, LockGuard, fixturePkg, fixtureDir("lockguard"), "fixture.go")
}

func TestGoroLeakFixture(t *testing.T) {
	RunFixture(t, GoroLeak, fixturePkg, fixtureDir("goroleak"), "fixture.go")
}

func TestLockOrderFixture(t *testing.T) {
	RunFixture(t, LockOrder, fixturePkg, fixtureDir("lockorder"), "fixture.go")
}

// TestErrSinkFixture loads the fixture under a WAL import path so its
// local callees count as protected durability functions.
func TestErrSinkFixture(t *testing.T) {
	RunFixture(t, ErrSink, "deepsketch/internal/wal", fixtureDir("errsink"), "fixture.go")
}

// TestRepoClean is the machine-checked invariant of this PR: the whole
// module passes its own analysis suite. It is the same check CI's lint
// job runs via cmd/deepsketch-lint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Run(prog, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestAllAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"zeroalloc", "durability", "ctxpolicy", "lockguard",
		"goroleak", "lockorder", "errsink",
	} {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
	if got := len(All()); got != 7 {
		t.Errorf("All() returns %d analyzers, want 7", got)
	}
}
