package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitOrFail runs e.Wait and fails the test if it has not returned within
// limit of wall-clock time.
func waitOrFail(t *testing.T, e *Engine, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		e.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatal("Wait did not return")
	}
}

func TestSerializedGoexitDoesNotWedgeWait(t *testing.T) {
	e := NewEngine()
	e.Serialize(1)
	m := e.NewMutex("m")
	var finished int // guarded by m
	e.Go("root", func() {
		for i := 0; i < 3; i++ {
			i := i
			e.Go("actor", func() {
				e.Sleep(time.Duration(i+1) * time.Microsecond)
				if i == 0 {
					// What t.FailNow does on an actor: the actor ends
					// here, and whoever resumed it must not end with it.
					runtime.Goexit()
				}
				m.Lock()
				finished++
				m.Unlock()
			})
		}
	})
	waitOrFail(t, e, 5*time.Second)
	if finished != 2 {
		t.Fatalf("%d actors finished after the Goexit, want 2", finished)
	}
	if e.Now() != 3*time.Microsecond {
		t.Fatalf("clock at %v, want 3µs", e.Now())
	}
}

func TestSerializedEnginesLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		e.Serialize(int64(i))
		m := e.NewMutex("m")
		for a := 0; a < 4; a++ {
			e.Go("actor", func() {
				m.Lock()
				e.Sleep(time.Microsecond)
				m.Unlock()
			})
		}
		e.Wait()
	}
	// Wait returns as the last actor exits; its hub ends a moment later.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 100 engines, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSerializedGoFromLockedThread(t *testing.T) {
	// The runtime refuses to switch to a coroutine from a thread other
	// than the one it was created on when that one was locked, so actors
	// must not become coroutines on the caller's thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	e := NewEngine()
	e.Serialize(1)
	e.Go("a", func() {
		e.Sleep(time.Microsecond)
		e.Go("b", func() { e.Sleep(time.Microsecond) })
	})
	waitOrFail(t, e, 5*time.Second)
}

func TestSerializedSpawnReusesCoroutines(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEngine()
	e.Serialize(1)
	var allocs float64
	goroutines := make([]int, 0, allocRuns+1) // appending must not allocate
	e.Go("parent", func() {
		wg := e.NewWaitGroup()
		done := wg.Done
		allocs = testing.AllocsPerRun(allocRuns, func() {
			wg.Add(1)
			e.Go("child", done)
			wg.Wait()
			goroutines = append(goroutines, runtime.NumGoroutine())
		})
	})
	e.Wait()
	if allocs != 0 {
		t.Errorf("%v allocs per spawn in steady state, want 0", allocs)
	}
	if first, last := goroutines[0], goroutines[len(goroutines)-1]; last != first {
		t.Errorf("goroutines grew from %d to %d over %d spawns", first, last, len(goroutines))
	}
}

func TestSerializedGoexitOfLastActorLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Serialize(1)
	e.Go("root", func() {
		wg := e.NewWaitGroup()
		wg.Add(1)
		e.Go("child", wg.Done) // finishes first, leaving a spare coroutine
		wg.Wait()
		runtime.Goexit()
	})
	waitOrFail(t, e, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the engine finished, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
