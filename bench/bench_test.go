package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestPercentileRefusesAnUnsampledTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{1000, 0.99, 990}, // ten samples beyond the 990th
		{999, 0.99, 0},    // nine
		{100, 0.90, 90},
		{99, 0.90, 0},
		{21, 0.50, 11},
		{20, 0.50, 10},
		{19, 0.50, 0},
		{0, 0.50, 0},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.p)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v", c.n, c.p, got, ok, c.want)
		}
	}
	if _, err := mustPercentile("x", ramp(50), 0.99); err == nil {
		t.Error("mustPercentile accepted p99 of 50 samples")
	}
	if _, ok := percentile(ramp(1000), 1); ok {
		t.Error("percentile accepted p = 1")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// A hand-built trace: request 0 misses and is flushed alone, so its call
// below the coalescer names its parent; requests 1 and 2 are flushed
// together, so their call names none and is found by its timing.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: layerCache, Request: 0, Parent: -1, Start: 0, End: 100},                   // 0
		{Layer: layerObserve, Request: 0, Parent: 0, Start: 10, End: 90},                  // 1
		{Layer: layerClamp, Request: 0, Parent: 1, Start: 12, End: 88},                    // 2
		{Layer: layerCoalesce, Request: 0, Parent: 2, Start: 15, End: 85},                 // 3
		{Layer: layerView, Request: 0, Parent: 3, Start: 25, End: 80},                     // 4
		{Layer: layerCoalesce, Request: 1, Parent: -1, Start: 90, End: 200},               // 5
		{Layer: layerCoalesce, Request: 2, Parent: -1, Start: 95, End: 201},               // 6
		{Layer: layerView, Request: -1, Parent: -1, Start: 110, End: 190, Queries: 2},     // 7
		{Layer: layerCache, Request: 3, Parent: -1, Start: 300, End: 302, CacheHit: true}, // 8
	}
	want := []float64{
		100 - 80, // cache: all but the observer below it
		80 - 76,
		76 - 70,
		70 - 55, // the coalescer's wait around the flush it caused
		55,      // the view is a leaf here
		110 - 80,
		106 - 80,
		80,
		2,
	}
	got := selfTimes(spans, layerCoalesce, layerView)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Layer, got[i], want[i])
		}
	}
	if s := serving(spans, layerCoalesce, layerView); s[3] != 4 || s[5] != 7 || s[6] != 7 {
		t.Errorf("serving = %v, want 3→4, 5→7, 6→7", s)
	}
	hit := selfP50US(spans, got, func(s span) bool { return s.Layer == layerCache && s.CacheHit })
	if hit != 2.0/1e3 {
		t.Errorf("cache-hit self p50 = %v us, want 0.002", hit)
	}
	if none := selfP50US(spans, got, func(s span) bool { return s.Layer == layerTemplate }); none != 0 {
		t.Errorf("self p50 of an absent layer = %v, want 0", none)
	}
}

func TestQuerySetsComeFromTheSeedAlone(t *testing.T) {
	d := newFixtureDB()
	const n = 3 * daemonCacheEntries
	render := func(seed int64) (cold, hot, tpl string) {
		t.Helper()
		c, err := coldSet(d, seed, n)
		if err != nil {
			t.Fatal(err)
		}
		h, err := hotSet(d, seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := templateSet(d, seed)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(c.sql, "\n"), strings.Join(h.sql, "\n"), strings.Join(p.sql, "\n")
	}
	c1, h1, p1 := render(7)
	c1b, h1b, p1b := render(7)
	if c1 != c1b || h1 != h1b || p1 != p1b {
		t.Error("the same seed gave different query sets")
	}
	c2, h2, p2 := render(8)
	if c1 == c2 || h1 == h2 || p1 == p2 {
		t.Error("another seed gave the same query set")
	}

	// Cycled in order, no window of the cache's size may repeat a
	// signature, or the cold workload would hit.
	cold, err := coldSet(d, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]int{}
	for i := 0; i < 2*n; i++ {
		sig := cold.queries[i%n].Signature()
		if j, seen := last[sig]; seen && i-j < daemonCacheEntries {
			t.Fatalf("signature of query %d repeats %d requests later", j%n, i-j)
		}
		last[sig] = i
	}
	for i, b := range cold.body {
		if !bytes.Contains(b, []byte("SELECT COUNT(*)")) {
			t.Fatalf("request body %d is %q", i, b)
		}
	}

	// The hot set must fit the cache with room to spare.
	hot, err := hotSet(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot.sql) == 0 || len(hot.sql) > daemonCacheEntries/2 {
		t.Errorf("hot set has %d queries, want 1..%d", len(hot.sql), daemonCacheEntries/2)
	}
}

func TestContractMatchesTheCode(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the contract, %q in the code", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the contract, %d in the code", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d is %s [%s] in the contract, %s [%s] in the code", i, got.Name, got.Unit, m.name, m.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		if got.Better != "lower" && got.Better != "higher" {
			t.Errorf("%s: better = %q", got.Name, got.Better)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the contract, %d in the code", len(c.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := c.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d is %s [%s] in the contract, %s [%s] in the code", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("latency 100→110 is worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); got != 0.1 {
		t.Errorf("throughput 100→90 is worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100→90 is worse by %v, want an improvement", got)
	}
}
