package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// allocRuns is how many measured iterations each primitive gets.
// testing.AllocsPerRun adds one warm-up call, which grows every queue,
// heap and map to its steady-state size.
const allocRuns = 200

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// measureInActor runs testing.AllocsPerRun over step inside an actor on e,
// alongside partner (nil for none), and returns the allocations per call.
// partner receives the number of step calls it must serve.
func measureInActor(e *Engine, step func(), partner func(calls int)) float64 {
	var got float64
	if partner != nil {
		e.Go("partner", func() { partner(allocRuns + 1) })
	}
	e.Go("measure", func() { got = testing.AllocsPerRun(allocRuns, step) })
	e.Wait()
	return got
}

func TestPrimitivesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := []struct {
		name string
		run  func(e *Engine) (step func(), partner func(calls int))
	}{
		{"Sleep", func(e *Engine) (func(), func(int)) {
			return func() { e.Sleep(time.Microsecond) }, nil
		}},
		{"Mutex handoff", func(e *Engine) (func(), func(int)) {
			// Each side holds the lock across a sleep, so every Lock by
			// the other side parks and is granted by a handoff.
			m := e.NewMutex("m")
			step := func() {
				m.Lock()
				e.Sleep(time.Microsecond)
				m.Unlock()
			}
			return step, func(calls int) {
				for i := 0; i < calls; i++ {
					step()
				}
			}
		}},
		{"Cond Wait/Signal", func(e *Engine) (func(), func(int)) {
			m := e.NewMutex("m")
			c := e.NewCond(m)
			turn := 0 // 1: partner's move; guarded by m
			step := func() {
				m.Lock()
				turn = 1
				c.Signal()
				for turn != 0 {
					c.Wait()
				}
				m.Unlock()
			}
			return step, func(calls int) {
				m.Lock()
				for i := 0; i < calls; i++ {
					for turn != 1 {
						c.Wait()
					}
					turn = 0
					c.Signal()
				}
				m.Unlock()
			}
		}},
		{"Semaphore", func(e *Engine) (func(), func(int)) {
			ping, pong := e.NewSemaphore("ping", 0), e.NewSemaphore("pong", 0)
			return func() { ping.Release(); pong.Acquire() }, func(calls int) {
				for i := 0; i < calls; i++ {
					ping.Acquire()
					pong.Release()
				}
			}
		}},
		{"Event", func(e *Engine) (func(), func(int)) {
			evs := make([]Event, allocRuns+1)
			for i := range evs {
				evs[i].Init(e, "ev")
			}
			next := 0
			return func() { evs[next].Wait(); next++ }, func(calls int) {
				for i := 0; i < calls; i++ {
					e.Sleep(time.Microsecond) // the waiter parks first
					evs[i].Set()
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range engineModes {
				t.Run(mode.name, func(t *testing.T) {
					e := mode.newEngine()
					step, partner := tc.run(e)
					if got := measureInActor(e, step, partner); got != 0 {
						t.Errorf("%v allocs per call in steady state, want 0", got)
					}
				})
			}
		})
	}
}

// refTimers is the container/heap implementation the value-typed timer
// heap replaced; the property test below uses it as the oracle.
type refTimers []timer

func (h refTimers) Len() int           { return len(h) }
func (h refTimers) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refTimers) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refTimers) Push(x any)        { *h = append(*h, x.(timer)) }
func (h *refTimers) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

func TestTimerHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got timerHeap
		var want refTimers
		var seq uint64
		// Few distinct deadlines, so most timers tie on when and the
		// order rests on seq.
		spread := 1 + rng.Intn(8)
		for op := 0; op < 500; op++ {
			if len(got) == 0 || rng.Intn(3) != 0 {
				seq++
				tm := timer{when: time.Duration(rng.Intn(spread)), seq: seq}
				got.push(tm)
				heap.Push(&want, tm)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(timer)
			if g != w {
				t.Fatalf("seed %d op %d: popped %+v, container/heap popped %+v", seed, op, g, w)
			}
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(timer)
			if g != w {
				t.Fatalf("seed %d drain: popped %+v, container/heap popped %+v", seed, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d timers left after the oracle drained", seed, len(got))
		}
	}
}
