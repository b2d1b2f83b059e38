// The one benchmark at the root: serving throughput with and without the
// coalescer at 2, 8 and 64 concurrent clients, which bench/ (two
// connections) cannot say. It is why deepsketchd calls the sketch directly
// on each request's goroutine: at 2 clients the coalescer cost about 1.4 ×
// the direct call for a mean batch of 1.7, and it saved about 15 % only at
// 64 clients, a concurrency no benchmark workload runs. The coalesced mode
// stays until the coalescer itself is deleted. The paper's evaluation —
// Table 1, Figures 1a/1b/2, the §2 claims — lives once, in cmd/experiments,
// with its claims gated by cmd/experiments' tests; per-layer timings live
// in bench/.
package deepsketch_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"deepsketch"
)

// callCounter counts the calls and the queries that reach the backend
// beneath it: queries per call is the mean batch a coalescer above it forms.
type callCounter struct {
	deepsketch.Estimator
	calls, queries atomic.Int64
}

func (c *callCounter) Estimate(ctx context.Context, q deepsketch.Query) (deepsketch.Estimate, error) {
	c.calls.Add(1)
	c.queries.Add(1)
	return c.Estimator.Estimate(ctx, q)
}

func (c *callCounter) EstimateBatch(ctx context.Context, qs []deepsketch.Query) ([]deepsketch.Estimate, error) {
	c.calls.Add(1)
	c.queries.Add(int64(len(qs)))
	return c.Estimator.EstimateBatch(ctx, qs)
}

// BenchmarkServeConcurrent measures serving cost per request with the
// sketch bench/ serves (20k titles, 256 hidden units, 1000-row samples, 600
// training queries, 3 epochs) on cold generated queries, in closed loops of
// 2, 8 and 64 clients. Two modes: naive per-request Estimate (one MSCN
// forward pass per request) and the coalescer (requests queued during a
// flush merged into one packed forward pass). One iteration = one served
// request, so ns/op is the inverse of throughput; "batch" is the mean
// number of queries per call reaching the sketch.
func BenchmarkServeConcurrent(b *testing.B) {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 1, Titles: 20000})
	sketch, err := deepsketch.Build(d, deepsketch.Config{
		Name: "bench", SampleSize: 1000, TrainQueries: 600, Seed: 11,
		Model: deepsketch.ModelConfig{HiddenUnits: 256, Epochs: 3, Seed: 11},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := deepsketch.GenerateWorkload(d, deepsketch.GenConfig{
		Seed: 17, Count: 2048, MaxJoins: 4, MaxPreds: 3, Dedup: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	bench := func(clients int, coalesce bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			counter := &callCounter{Estimator: sketch}
			var est deepsketch.Estimator = counter
			if coalesce {
				co := deepsketch.NewCoalescer(counter, deepsketch.CoalesceOptions{})
				defer co.Close()
				est = co
			}
			var wg sync.WaitGroup
			reqs := make(chan int)
			failed := make(chan error, 1)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range reqs {
						if _, err := est.Estimate(context.Background(), queries[i%len(queries)]); err != nil {
							select {
							case failed <- err:
							default:
							}
							return
						}
					}
				}()
			}
			b.ResetTimer()
		feed:
			for i := 0; i < b.N; i++ {
				select {
				case reqs <- i:
				case err := <-failed:
					// A dead worker must not leave the feeder blocked on an
					// unbuffered send with no receivers.
					close(reqs)
					wg.Wait()
					b.Fatal(err)
					break feed
				}
			}
			close(reqs)
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-failed:
				b.Fatal(err)
			default:
			}
			if calls := counter.calls.Load(); calls > 0 {
				b.ReportMetric(float64(counter.queries.Load())/float64(calls), "batch")
			}
		}
	}
	for _, clients := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("naive/clients=%d", clients), bench(clients, false))
		b.Run(fmt.Sprintf("coalesced/clients=%d", clients), bench(clients, true))
	}
}
