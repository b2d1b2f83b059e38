package main

import (
	"context"
	"flag"
	"fmt"

	"deepsketch"
	"deepsketch/internal/metrics"
)

// cmdCanary is the offline canary gate: it simulates the daemon's hash-
// split rollout between a live sketch and a refreshed candidate on a
// labeled workload, reports the comparative windowed q-error per split,
// and prints the PROMOTE/ABORT verdict the serving gate would reach —
// before any traffic touches the candidate.
func cmdCanary(args []string) error {
	fs := flag.NewFlagSet("canary", flag.ExitOnError)
	dbf := addDBFlags(fs)
	livePath := fs.String("sketch", "sketch.dsk", "live sketch file")
	candPath := fs.String("candidate", "", "candidate sketch file (e.g. the output of deepsketch refresh)")
	fraction := fs.Float64("fraction", 0.1, "canary traffic fraction to simulate, in (0, 1)")
	ratio := fs.Float64("ratio", 1.1, "promote iff canary median q-error ≤ ratio × live median (on their splits)")
	fromWorkload := fs.String("workload", "", "labeled workload file (artifact CSV); default: generate+label")
	queries := fs.Int("queries", 1000, "generated workload size (when no -workload file)")
	seed := fs.Int64("seed", 17, "generated workload seed")
	pinnedPath := fs.String("pinned", "", "pinned benchmark file (labeled workload CSV); candidates must also pass this frozen rail")
	pinnedRegress := fs.Float64("pinned-max-regress", deepsketch.DefaultPinnedMaxRegress, "rail tolerance: candidate median and p95 on the pinned set may be at most this × live's")
	gate := fs.Bool("gate", false, "exit non-zero on an ABORT verdict (for scripting)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *candPath == "" {
		return fmt.Errorf("canary needs -candidate (the refreshed sketch to judge)")
	}
	// The gate needs both splits populated, so 1 (every query on the
	// canary, no comparison base) is as unusable as 0.
	if *fraction <= 0 || *fraction >= 1 {
		return fmt.Errorf("-fraction %v outside (0, 1)", *fraction)
	}
	live, err := deepsketch.LoadFile(*livePath)
	if err != nil {
		return err
	}
	cand, err := deepsketch.LoadFile(*candPath)
	if err != nil {
		return err
	}
	if live.DBName != cand.DBName {
		return fmt.Errorf("live sketch is for dataset %q, candidate for %q", live.DBName, cand.DBName)
	}
	d, err := dbf.make()
	if err != nil {
		return err
	}
	if d.Name != live.DBName {
		return fmt.Errorf("sketches were built on dataset %q, -db is %q", live.DBName, *dbf.kind)
	}
	var labeled []deepsketch.LabeledQuery
	if *fromWorkload != "" {
		labeled, err = deepsketch.ReadWorkloadFile(d, *fromWorkload)
	} else {
		var qs []deepsketch.Query
		qs, err = deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
			Seed: *seed, Count: *queries, Tables: live.Cfg.Tables,
			MaxJoins: live.Cfg.MaxJoins, MaxPreds: live.Cfg.MaxPreds, Dedup: true,
		})
		if err == nil {
			labeled, err = deepsketch.LabelWorkload(d, qs)
		}
	}
	if err != nil {
		return err
	}

	// The same deterministic signature split the router uses: each query is
	// answered by exactly one side, like live traffic under the canary. Each
	// side estimates its split in one batch.
	var liveSplit, candSplit []deepsketch.LabeledQuery
	for _, lq := range labeled {
		if deepsketch.CanarySplit(lq.Query.Signature(), *fraction) {
			candSplit = append(candSplit, lq)
		} else {
			liveSplit = append(liveSplit, lq)
		}
	}
	if len(candSplit) == 0 {
		return fmt.Errorf("no queries landed in the %.0f%% canary split of %d — raise -fraction or -queries", *fraction*100, len(labeled))
	}
	if len(liveSplit) == 0 {
		return fmt.Errorf("every query landed in the canary split — lower -fraction to leave a comparison base")
	}
	ctx := context.Background()
	liveQ, err := qErrors(ctx, live, liveSplit)
	if err != nil {
		return err
	}
	candQ, err := qErrors(ctx, cand, candSplit)
	if err != nil {
		return err
	}
	liveSum := metrics.Summarize(liveQ)
	candSum := metrics.Summarize(candQ)
	fmt.Printf("canary gate: %q vs candidate %q at %.0f%% traffic (%d queries: %d canary, %d live)\n\n",
		live.Name(), cand.Name(), *fraction*100, len(labeled), len(candQ), len(liveQ))
	fmt.Print(metrics.FormatTable([]metrics.Row{
		{Name: "live split", Summary: liveSum},
		{Name: "canary split", Summary: candSum},
	}))
	limit := liveSum.Median * *ratio
	promote := candSum.Median <= limit
	fmt.Printf("\ngate: canary median %s vs limit %s (live median %s × ratio %g)\n",
		metrics.Sig3(candSum.Median), metrics.Sig3(limit), metrics.Sig3(liveSum.Median), *ratio)

	// The pinned-benchmark rail: the split gate above judges the candidate
	// on the supplied workload, which — like the daemon's live windows — an
	// adaptive adversary can steer. A frozen held-out set cannot be steered,
	// so a rail failure vetoes promotion even when the split gate passes.
	railPass := true
	if *pinnedPath != "" {
		pb, err := deepsketch.LoadPinnedBenchmarkFile(d, *pinnedPath)
		if err != nil {
			return err
		}
		res, err := pb.Judge(ctx, live, cand, *pinnedRegress)
		if err != nil {
			return err
		}
		fmt.Printf("\npinned rail: %d frozen queries, tolerance %gx\n\n", res.Size, res.MaxRegress)
		fmt.Print(metrics.FormatTable([]metrics.Row{
			{Name: "pinned live", Summary: res.Live},
			{Name: "pinned candidate", Summary: res.Candidate},
		}))
		fmt.Printf("\nrail: candidate median %s vs limit %s, p95 %s vs limit %s\n",
			metrics.Sig3(res.Candidate.Median), metrics.Sig3(res.Live.Median*res.MaxRegress),
			metrics.Sig3(res.Candidate.P95), metrics.Sig3(res.Live.P95*res.MaxRegress))
		railPass = res.Pass
		if !res.Pass && promote {
			fmt.Println("rail: FAIL — candidate regresses on the pinned benchmark; vetoing the split gate's promote")
		} else if !res.Pass {
			fmt.Println("rail: FAIL")
		} else {
			fmt.Println("rail: pass")
		}
	}

	if promote && railPass {
		fmt.Println("verdict: PROMOTE")
		return nil
	}
	fmt.Println("verdict: ABORT")
	if *gate {
		if !railPass {
			return fmt.Errorf("pinned rail failed: candidate regresses beyond %gx on the frozen benchmark", *pinnedRegress)
		}
		return fmt.Errorf("canary gate failed: median %s > limit %s", metrics.Sig3(candSum.Median), metrics.Sig3(limit))
	}
	return nil
}
