package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"deepsketch/internal/db"
	"deepsketch/internal/pressure"
)

// LabeledQuery pairs a query with its true cardinality (its ML label).
type LabeledQuery struct {
	Query db.Query
	Card  int64
}

// Label executes queries against the database with a bounded worker pool to
// obtain true cardinalities — the paper's step 3, which it accelerates by
// running "the training queries (in parallel) on multiple HyPer instances".
// workers <= 0 uses GOMAXPROCS, which every production caller passes;
// benchmarks set it to compare widths. Label reads the serving-pressure
// gauge once, as it starts: while a serving request is in flight in the
// process it runs one worker fewer, never below one (pressure.Width), so a
// daemon labeling a refresh's workload leaves a core to its traffic. The
// labels are the same at any width. progress, when non-nil, is called
// after each completed query with the number done so far (from multiple
// goroutines, monotonically non-decreasing values are not guaranteed per
// call site).
func Label(d *db.DB, queries []db.Query, workers int, progress func(done int)) ([]LabeledQuery, error) {
	workers = labelWorkers(workers, len(queries))
	out := make([]LabeledQuery, len(queries))
	var done atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				card, err := d.Count(queries[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("workload: labeling query %d (%s): %w",
						i, queries[i].SQL(nil), err))
					continue
				}
				out[i] = LabeledQuery{Query: queries[i], Card: card}
				n := done.Add(1)
				if progress != nil {
					progress(int(n))
				}
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}
	return out, nil
}

// Split partitions labeled queries into train and validation sets with the
// given validation fraction, preserving order (callers shuffle beforehand if
// needed). frac is clamped to [0, 0.9].
func Split(all []LabeledQuery, valFrac float64) (train, val []LabeledQuery) {
	if valFrac < 0 {
		valFrac = 0
	}
	if valFrac > 0.9 {
		valFrac = 0.9
	}
	nVal := int(float64(len(all)) * valFrac)
	return all[:len(all)-nVal], all[len(all)-nVal:]
}

// labelWorkers is how many workers Label runs for n queries when asked for
// workers.
func labelWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(pressure.Width(workers), n)
}
