package sim

import (
	"testing"
	"time"
)

// engineModes are the two ways an engine schedules its actors: each on a
// goroutine of its own, or serialized as coroutines on one hub goroutine.
var engineModes = []struct {
	name      string
	newEngine func() *Engine
}{
	{"concurrent", NewEngine},
	{"serialized", func() *Engine {
		e := NewEngine()
		e.Serialize(1)
		return e
	}},
}

// benchModes runs body as a sub-benchmark on a fresh engine of each mode.
// body spawns the actors that perform b.N operations; the engine is waited
// on inside the timed region.
func benchModes(b *testing.B, body func(b *testing.B, e *Engine)) {
	for _, mode := range engineModes {
		b.Run(mode.name, func(b *testing.B) {
			e := mode.newEngine()
			b.ReportAllocs()
			b.ResetTimer()
			body(b, e)
			e.Wait()
		})
	}
}

// BenchmarkSleep measures one virtual sleep by a lone actor: a park on the
// timer heap, a clock advance and a wakeup.
func BenchmarkSleep(b *testing.B) {
	benchModes(b, func(b *testing.B, e *Engine) {
		e.Go("sleeper", func() {
			for i := 0; i < b.N; i++ {
				e.Sleep(time.Microsecond)
			}
		})
	})
}

// BenchmarkSemaphoreHandoff measures one ping-pong round trip between two
// actors over a pair of semaphores: two parks, each ended by a handoff.
func BenchmarkSemaphoreHandoff(b *testing.B) {
	benchModes(b, func(b *testing.B, e *Engine) {
		ping, pong := e.NewSemaphore("ping", 0), e.NewSemaphore("pong", 0)
		e.Go("pong", func() {
			for i := 0; i < b.N; i++ {
				ping.Acquire()
				pong.Release()
			}
		})
		e.Go("ping", func() {
			for i := 0; i < b.N; i++ {
				ping.Release()
				pong.Acquire()
			}
		})
	})
}

// BenchmarkMutexHandoff measures one contended critical section. Two
// actors each hold the mutex across a virtual sleep, so every Lock parks
// and is granted by the other actor's Unlock.
func BenchmarkMutexHandoff(b *testing.B) {
	benchModes(b, func(b *testing.B, e *Engine) {
		m := e.NewMutex("m")
		for a := 0; a < 2; a++ {
			n := b.N / 2
			if a == 0 {
				n = b.N - n
			}
			e.Go("locker", func() {
				for i := 0; i < n; i++ {
					m.Lock()
					e.Sleep(time.Microsecond)
					m.Unlock()
				}
			})
		}
	})
}

// BenchmarkSpawn measures spawning an actor that exits at once while its
// parent waits for it. A serialized engine reuses the finished actor's
// coroutine for the next spawn.
func BenchmarkSpawn(b *testing.B) {
	benchModes(b, func(b *testing.B, e *Engine) {
		e.Go("parent", func() {
			wg := e.NewWaitGroup()
			done := wg.Done
			for i := 0; i < b.N; i++ {
				wg.Add(1)
				e.Go("child", done)
				wg.Wait()
			}
		})
	})
}
