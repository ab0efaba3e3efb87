package kamlssd

import (
	"testing"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
)

// getAllocBudget is the hot-path allocation ceiling for one flushed-read
// Get (DESIGN.md §13). The seed spent ~33 allocs/Get (task + Future +
// park-token channels per wakeup); direct execution plus pooled park
// tokens brought it to 7, and allocation-free simulator waits (value
// timers, no park-reason strings) to 2. The budget leaves headroom for
// compiler/runtime drift, not for new per-Get allocations — if this trips,
// something joined the hot path.
const getAllocBudget = 4

// raceEnabled is set by race_test.go in -race builds. The race detector
// makes sync.Pool drop pooled objects at random, so under it both budgets
// fall back to their previous, looser ceilings.
var raceEnabled bool

// budget returns the allocation budget that applies to this build.
func budget(tight, underRace int) int {
	if raceEnabled {
		return underRace
	}
	return tight
}

// TestGetAllocBudget pins the allocation count of the lock-free read path:
// Gets against a flushed working set, telemetry on (the default), one
// reader. Runs inside the simulation actor so AllocsPerRun measures only
// this actor's work — the flushers are parked on their work condvars and
// allocate nothing while the reader runs.
func TestGetAllocBudget(t *testing.T) {
	const keys = 64
	e := sim.NewEngine()
	arr := flash.New(e, testFlashConfig())
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(testFlashConfig())
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	var got float64
	e.Go("alloc-main", func() {
		defer dev.Close()
		ns, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for k := uint64(0); k < keys; k++ {
			if err := dev.Put(one(ns, k, val(k, 256))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		dev.Flush()
		// Warm every pool (park tokens, timer entries) before measuring.
		for i := 0; i < 4*keys; i++ {
			if _, err := dev.Get(ns, uint64(i)%keys); err != nil {
				t.Errorf("warmup get: %v", err)
				return
			}
		}
		var k uint64
		got = testing.AllocsPerRun(256, func() {
			if _, err := dev.Get(ns, k%keys); err != nil {
				t.Errorf("get: %v", err)
			}
			k++
		})
	})
	e.Wait()
	if t.Failed() {
		return
	}
	limit := budget(getAllocBudget, 12)
	if got > float64(limit) {
		t.Fatalf("flushed Get allocates %.1f/op, budget %d (see DESIGN.md §13)", got, limit)
	}
	t.Logf("flushed Get: %.1f allocs/op (budget %d)", got, limit)
}

// putAllocBudget bounds a single-record 256 B Put. It measures 3: the
// command (with its record), the completion future, and the key's new
// version-chain node. Everything else on the write path is pooled or
// reused — NVRAM entries and batch records, execPut's scratch, the
// coalescer's buffers, simulator waits — and a sealed page costs one page
// and one OOB allocation, spread over the page's records. The budget is
// the measured cost plus about 25%.
const putAllocBudget = 4

// TestPutAllocBudget pins the write-path allocation count so pipeline or
// staging changes that start allocating per record get caught.
func TestPutAllocBudget(t *testing.T) {
	const keys = 64
	e := sim.NewEngine()
	arr := flash.New(e, testFlashConfig())
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(testFlashConfig())
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	var got float64
	e.Go("alloc-main", func() {
		defer dev.Close()
		ns, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		v := val(3, 256)
		for i := 0; i < 2*keys; i++ {
			if err := dev.Put(one(ns, uint64(i)%keys, v)); err != nil {
				t.Errorf("warmup put: %v", err)
				return
			}
		}
		var k uint64
		got = testing.AllocsPerRun(256, func() {
			if err := dev.Put(one(ns, k%keys, v)); err != nil {
				t.Errorf("put: %v", err)
			}
			k++
		})
	})
	e.Wait()
	if t.Failed() {
		return
	}
	limit := budget(putAllocBudget, 48)
	if got > float64(limit) {
		t.Fatalf("Put allocates %.1f/op, budget %d", got, limit)
	}
	t.Logf("Put: %.1f allocs/op (budget %d)", got, limit)
}
