// Package fixture seeds goroleak violations next to the compliant
// launch shapes the analyzer must stay quiet on.
package fixture

import (
	"context"
	"sync"
)

type worker struct {
	wg   sync.WaitGroup
	stop chan struct{}
	done chan struct{}
}

// forkJoin is the compliant WaitGroup shard: Add before the go statement,
// deferred Done inside the literal.
func forkJoin(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// fieldWaitGroup joins through a struct-field WaitGroup (s.wg), the
// daemon's background-build shape.
func (w *worker) fieldWaitGroup() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
	}()
	w.wg.Wait()
}

// missingAdd calls Done but nothing ever Adds: the Wait cannot account
// for the goroutine.
func missingAdd() {
	var wg sync.WaitGroup
	go func() { // want "no provable join/shutdown path"
		defer wg.Done()
	}()
	wg.Wait()
}

// resultChannel is the result-channel shape: the launcher receives
// the goroutine's result, so completion is observed.
func resultChannel() int {
	ch := make(chan int, 1)
	go func() {
		ch <- 42
	}()
	return <-ch
}

// fireAndForget sends on a channel nobody in the launcher reads.
func fireAndForget() {
	ch := make(chan int, 1)
	go func() { // want "no provable join/shutdown path"
		ch <- 42
	}()
}

// doneWait blocks on an owner-controlled channel: the owner can always
// release it by closing stop.
func (w *worker) doneWait() {
	go func() {
		<-w.stop
		close(w.done)
	}()
}

// annotated is a deliberate fire-and-forget launch, suppressed with a reason.
func annotated() {
	//deepsketch:ignore goroleak process-lifetime metrics flusher dies with the process
	go func() {
		select {}
	}()
}

// loop is the actor shape: its body waits on the receiver's stop channel.
func (w *worker) loop() {
	for {
		select {
		case <-w.stop:
			return
		}
	}
}

// launchLoop launches an actor whose body provably waits on an
// owner-controlled channel.
func launchLoop(w *worker) {
	go w.loop()
}

// run is ctx-bound: the launcher's context reaches it.
func run(ctx context.Context) {
	<-ctx.Done()
}

// launchCtx passes a cancellable context through to the goroutine.
func launchCtx(ctx context.Context) {
	go run(ctx)
}

// launchBackground hands the goroutine a context nothing can cancel.
func launchBackground() {
	go run(context.Background()) // want "context.Background"
}

// launchBackgroundVar reaches the same uncancellable context through a
// local variable.
func launchBackgroundVar() {
	ctx := context.Background()
	go run(ctx) // want "context.Background"
}

// sink takes no context and waits on nothing.
func sink() {}

// launchSink launches a callee with no join or shutdown path at all.
func launchSink() {
	go sink() // want "no provable join/shutdown path"
}
