package cmdq

import (
	"testing"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBlockingFutureWaitDoesNotAllocate checks that a Wait which has to
// park, and the completion that wakes it, allocate nothing: the future's
// parking lot is embedded in it.
func TestBlockingFutureWaitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 200
	eng := sim.NewEngine()
	futs := make([]*Future, runs+1) // AllocsPerRun adds one warm-up call
	for i := range futs {
		futs[i] = newFuture(eng)
	}
	parked := 0
	eng.Go("completer", func() {
		for _, f := range futs {
			eng.Sleep(time.Microsecond) // the waiter parks first
			f.complete(Result{Namespace: 1})
		}
	})
	var allocs float64
	next := 0
	eng.Go("waiter", func() {
		allocs = testing.AllocsPerRun(runs, func() {
			f := futs[next]
			next++
			if !f.Ready() {
				parked++
			}
			if res := f.Wait(); res.Namespace != 1 {
				t.Errorf("future %d resolved with %+v", next-1, res)
			}
		})
	})
	eng.Wait()
	if parked != runs+1 {
		t.Fatalf("%d of %d Waits blocked; the test must exercise the parking path", parked, runs+1)
	}
	if allocs != 0 {
		t.Errorf("blocking Future.Wait: %v allocs per call, want 0", allocs)
	}
}
