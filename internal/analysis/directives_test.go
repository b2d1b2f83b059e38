package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSnippet type-checks one in-memory source file and returns its
// directive index plus the on-disk filename (the index keys lines by it).
func loadSnippet(t *testing.T, src string) (*Index, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snippet.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := LoadFiles("deepsketch/internal/snippet", path)
	if err != nil {
		t.Fatalf("loading snippet: %v", err)
	}
	return prog.Directives, path
}

func problemCount(x *Index, substr string) int {
	n := 0
	for _, p := range x.Problems {
		if strings.Contains(p.Message, substr) {
			n++
		}
	}
	return n
}

// TestDirectiveGrammar drives the line-scoped errok verb through
// well-formed and malformed spellings — a malformed form must surface a
// problem diagnostic AND not register its effect — and checks that every
// spelling of the verbs whose analyzers or declarations were deleted (bg,
// lockorder, deterministic) is an unknown directive: a stale annotation
// is reported, never silently taken to mean something.
func TestDirectiveGrammar(t *testing.T) {
	type grammarCase struct {
		name string
		src  string
		want func(t *testing.T, x *Index, file string)
	}
	cases := []grammarCase{
		{
			name: "errok trailing",
			src: "package snippet\n\nfunc f() error { return nil }\n\nfunc g() {\n" +
				"\t_ = f() //deepsketch:errok best-effort telemetry\n" +
				"}\n",
			want: func(t *testing.T, x *Index, file string) {
				if !x.ignored("errsink", file, 6) {
					t.Error("errok does not suppress errsink on its line")
				}
				if x.ignored("goroleak", file, 6) {
					t.Error("errok must only suppress errsink")
				}
			},
		},
		{
			name: "errok missing reason",
			src: "package snippet\n\nfunc f() error { return nil }\n\nfunc g() {\n" +
				"\t_ = f() //deepsketch:errok\n" +
				"}\n",
			want: func(t *testing.T, x *Index, file string) {
				if x.ignored("errsink", file, 6) {
					t.Error("bare errok must not suppress errsink")
				}
				if problemCount(x, "errok directive needs a reason") != 1 {
					t.Errorf("want one errok problem, got %v", x.Problems)
				}
			},
		},
		{
			name: "unknown verb",
			src:  "package snippet\n\n//deepsketch:nonsense whatever\n\nfunc f() {}\n",
			want: func(t *testing.T, x *Index, _ string) {
				if problemCount(x, "unknown directive //deepsketch:nonsense") != 1 {
					t.Errorf("unknown verb not reported: %v", x.Problems)
				}
			},
		},
	}
	for _, stale := range []struct{ name, verb, src string }{
		{"bg trailing", "bg", "func f() {\n\tgo func() {}() //deepsketch:bg main metrics flusher dies with the process\n}\n"},
		{"bg standalone above", "bg", "func f() {\n\t//deepsketch:bg main metrics flusher dies with the process\n\tgo func() {}()\n}\n"},
		{"bg missing reason", "bg", "func f() {\n\tgo func() {}() //deepsketch:bg main\n}\n"},
		{"lockorder well-formed", "lockorder", "//deepsketch:lockorder wal.Log.mu<wal.Log.idxMu\n\nfunc f() {}\n"},
		{"lockorder spaces around angle", "lockorder", "//deepsketch:lockorder wal.Log.mu < wal.Log.idxMu\n\nfunc f() {}\n"},
		{"lockorder missing separator", "lockorder", "//deepsketch:lockorder wal.Log.mu\n\nfunc f() {}\n"},
		{"lockorder empty side", "lockorder", "//deepsketch:lockorder <wal.Log.mu\n\nfunc f() {}\n"},
		{"lockorder chained pairs", "lockorder", "//deepsketch:lockorder a.T.x<a.T.y<a.T.z\n\nfunc f() {}\n"},
		{"deterministic root", "deterministic", "// f is a training root.\n//\n//deepsketch:deterministic\nfunc f() {}\n"},
	} {
		verb := stale.verb
		cases = append(cases, grammarCase{
			name: stale.name,
			src:  "package snippet\n\n" + stale.src,
			want: func(t *testing.T, x *Index, _ string) {
				if len(x.Problems) != 1 || problemCount(x, "unknown directive //deepsketch:"+verb) != 1 {
					t.Errorf("stale //deepsketch:%s not reported as unknown: %v", verb, x.Problems)
				}
			},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, file := loadSnippet(t, tc.src)
			tc.want(t, x, file)
		})
	}
}
