package sim

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"
)

// serialTrace runs a small contended workload on a serialized engine and
// returns the order in which actors got to touch the shared counter.
func serialTrace(seed int64) []string {
	eng := NewEngine()
	eng.Serialize(seed)
	var (
		traceMu sync.Mutex
		trace   []string
	)
	eng.Go("root", func() {
		mu := eng.NewMutex("shared")
		wg := eng.NewWaitGroup()
		for a := 0; a < 4; a++ {
			a := a
			wg.Add(1)
			eng.Go(fmt.Sprintf("worker%d", a), func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					// All workers sleep to the same instants, so every
					// wakeup is a genuine tie the scheduler must break.
					eng.Sleep(time.Microsecond)
					mu.Lock()
					traceMu.Lock()
					trace = append(trace, fmt.Sprintf("%d.%d@%v", a, i, eng.Now()))
					traceMu.Unlock()
					mu.Unlock()
				}
			})
		}
		wg.Wait()
	})
	eng.Wait()
	return trace
}

func TestSerializeSameSeedSameSchedule(t *testing.T) {
	a := serialTrace(42)
	b := serialTrace(42)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

func TestSerializeDifferentSeedsDiffer(t *testing.T) {
	a := serialTrace(1)
	for seed := int64(2); seed < 10; seed++ {
		if fmt.Sprint(serialTrace(seed)) != fmt.Sprint(a) {
			return // schedules diverge, as they should
		}
	}
	t.Fatal("eight different seeds produced the identical schedule")
}

func TestSerializeAfterSpawnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := NewEngine()
	eng.Go("a", func() {})
	eng.Wait()
	eng.Serialize(1)
}

// scheduleHash runs a fixed mix of every primitive on an engine serialized
// with seed and hashes the sequence of (actor, virtual time) pairs that the
// actors observe as they return from each wait. Any change to when the
// scheduler draws from its PRNG, or to which actor it draws, changes the
// hash.
func scheduleHash(seed int64) uint64 {
	eng := NewEngine()
	eng.Serialize(seed)
	h := fnv.New64a()
	note := func(actor int) {
		// Only the running actor writes, so no lock is needed.
		fmt.Fprintf(h, "%d@%d;", actor, eng.Now())
	}
	eng.Go("root", func() {
		mu := eng.NewMutex("mu")
		cond := eng.NewCond(mu)
		sem := eng.NewSemaphore("sem", 2)
		rw := eng.NewRWMutex("rw")
		ev := eng.NewEvent("ev")
		wg := eng.NewWaitGroup()
		ready := 0 // guarded by mu
		for a := 0; a < 6; a++ {
			a := a
			wg.Add(1)
			eng.Go(fmt.Sprintf("w%d", a), func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					eng.Sleep(time.Duration(1+(a+i)%3) * time.Microsecond)
					note(a)
					mu.Lock()
					note(a)
					ready++
					cond.Broadcast()
					mu.Unlock()
					sem.Use(time.Duration(1+a%2) * time.Microsecond)
					note(a)
					if (a+i)%2 == 0 {
						rw.RLock()
						note(a)
						eng.Sleep(time.Microsecond)
						rw.RUnlock()
					} else {
						rw.Lock()
						note(a)
						eng.Sleep(time.Microsecond)
						rw.Unlock()
					}
					note(a)
				}
				if a == 0 {
					// An actor-spawned Go joins mid-run.
					wg.Add(1)
					eng.Go("late", func() {
						defer wg.Done()
						eng.Sleep(time.Microsecond)
						note(100)
						ev.Set()
					})
				}
				ev.Wait()
				note(a)
			})
		}
		mu.Lock()
		for ready < 6 {
			cond.Wait()
			note(-1)
		}
		mu.Unlock()
		wg.Wait()
		note(-1)
	})
	eng.Wait()
	return h.Sum64()
}

// TestSerializedScheduleUnchanged pins the serialized scheduler's decisions.
// The constants were captured from the channel-transport engine that the
// coroutine transport replaced; the transport must not move a single draw.
func TestSerializedScheduleUnchanged(t *testing.T) {
	want := map[int64]uint64{
		1: 0xeb9e9c983b2626a6,
		2: 0x6ce907cba96a3d10,
		3: 0xec1775f45f85fe4a,
		4: 0x54b386e0d6765ca8,
		5: 0x48394d2b1b6e0884,
	}
	for seed := int64(1); seed <= 5; seed++ {
		if got := scheduleHash(seed); got != want[seed] {
			t.Errorf("seed %d: schedule hash %#x, want %#x", seed, got, want[seed])
		}
	}
}
