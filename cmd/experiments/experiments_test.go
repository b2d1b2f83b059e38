//go:build !race

// The experiments are single-threaded arithmetic over kernels the mscn and
// nn race tests already cover, and under -race the five below take minutes
// instead of seconds.

package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFastScaleGates runs the experiments whose claims hold with margin at
// -fast scale and fails on any gate the CLI would exit 1 on. A fixed seed is
// bitwise reproducible at any GOMAXPROCS, so the claims' factors are slack
// against code changes, not tolerance for noise.
func TestFastScaleGates(t *testing.T) {
	var out bytes.Buffer
	c := newCtx(&out, true, 0, 0, 0, 0, 0, 1)
	byName := map[string]experiment{}
	for _, e := range experiments {
		byName[e.name] = e
	}
	for _, name := range []string{"zerotuple", "ablation", "trainsize", "epochs", "fig1b"} {
		t.Run(name, func(t *testing.T) {
			out.Reset()
			defer func() {
				if t.Failed() {
					t.Log(out.String())
				}
			}()
			claims, err := byName[name].fn(c)
			if err != nil {
				t.Fatal(err)
			}
			gates := 0
			for _, cl := range claims {
				if cl.gate == gateBoth {
					gates++
				}
			}
			if gates == 0 {
				t.Fatal("no claim of this experiment is a gate at -fast scale")
			}
			if failed := report(&out, claims, true); failed > 0 {
				t.Errorf("%d of %d gates NOT reproduced", failed, gates)
			}
		})
	}
}

func TestReport(t *testing.T) {
	claims := []claim{
		{text: "holds", holds: true, got: "1 vs 2", gate: gateBoth},
		{text: "reported only", holds: false, got: "3 vs 2", gate: gateNever},
		{text: "paper scale", holds: false, got: "3 vs 2", gate: gatePaper},
	}
	var out bytes.Buffer
	if failed := report(&out, claims, true); failed != 0 {
		t.Errorf("-fast: %d failed, want 0 (no failing claim is a gate at -fast)\n%s", failed, &out)
	}
	if n := strings.Count(out.String(), "NOT reproduced"); n != 2 {
		t.Errorf("%d lines say NOT reproduced, want 2\n%s", n, &out)
	}
	if !strings.Contains(out.String(), "holds — holds (1 vs 2)") {
		t.Errorf("no verdict line for the claim that holds\n%s", &out)
	}
	if failed := report(&out, claims, false); failed != 1 {
		t.Errorf("paper scale: %d failed, want 1", failed)
	}
	claims[1].gate = gateBoth
	if failed := report(&out, claims, true); failed != 1 {
		t.Errorf("-fast with a failing both-scales gate: %d failed, want 1", failed)
	}
}

// TestPackageCommentListsExperiments keeps the package comment's list equal
// to what -h prints from the experiments table.
func TestPackageCommentListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		if line := "//\t" + e.String() + "\n"; !strings.Contains(string(src), line) {
			t.Errorf("package comment lacks %q", line)
		}
	}
}
