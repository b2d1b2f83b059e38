// The one benchmark at the root: serving throughput at 64 concurrent
// clients, which bench/ (two connections) cannot say and ROADMAP item 1
// needs to settle the coalescer. The paper's evaluation — Table 1, Figures
// 1a/1b/2, the §2 claims — lives once, in cmd/experiments, with its claims
// gated by cmd/experiments' tests; per-layer timings live in bench/.
package deepsketch_test

import (
	"context"
	"sync"
	"testing"

	"deepsketch"
)

// BenchmarkServeConcurrent measures serving throughput at 64 concurrent
// clients cycling the JOB-light workload. Three modes: naive per-request
// Estimate (one MSCN forward pass per request), the bare coalescer
// (concurrent requests of any shapes merged into one packed ragged-batch
// forward pass on the inference engine — no shape grouping, no padding, so
// batching wins even on a single core), and the serve stack as deepsketchd
// deploys it (LRU cache over the coalescer), where the cache absorbs the
// hot-query repeats that dominate serving traffic. One benchmark iteration
// = one served request; compare ns/op (≈ inverse throughput).
func BenchmarkServeConcurrent(b *testing.B) {
	d := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 17, Titles: 4000})
	sketch, err := deepsketch.Build(d, deepsketch.Config{
		Name: "bench", SampleSize: 256, TrainQueries: 2500, MaxJoins: 4, Seed: 17,
		Model: deepsketch.ModelConfig{HiddenUnits: 32, Epochs: 10, BatchSize: 128, Seed: 17},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := deepsketch.JOBLight(d, 17)
	if err != nil {
		b.Fatal(err)
	}
	const clients = 64
	bench := func(est deepsketch.Estimator) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
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
		}
	}
	b.Run("naive-per-request", bench(sketch))
	co := deepsketch.NewCoalescer(sketch, deepsketch.CoalesceOptions{})
	defer co.Close()
	b.Run("coalesced", bench(co))
	co2 := deepsketch.NewCoalescer(sketch, deepsketch.CoalesceOptions{})
	defer co2.Close()
	b.Run("serve-stack", bench(deepsketch.WithCache(co2, 1024)))
}
