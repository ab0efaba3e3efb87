package hashindex

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func mustPush(t *testing.T, vc *VersionChains, key, seq, loc uint64) *Version {
	t.Helper()
	v, err := vc.Push(key, seq, loc)
	if err != nil {
		t.Fatalf("Push(%d,%d,%d): %v", key, seq, loc, err)
	}
	return v
}

func TestVersionChainBasics(t *testing.T) {
	vc := NewVersionChains(8)
	if _, _, err := vc.GetAtOrBefore(1, 100); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty chain: want ErrNotFound, got %v", err)
	}
	v1 := mustPush(t, vc, 1, 10, 1000)
	// Pending blocks visibility at ts >= seq...
	if _, _, err := vc.GetAtOrBefore(1, 10); !errors.Is(err, ErrPendingVersion) {
		t.Fatalf("pending head: want ErrPendingVersion, got %v", err)
	}
	// ...but not below it.
	if _, _, err := vc.GetAtOrBefore(1, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("below pending: want ErrNotFound, got %v", err)
	}
	vc.Commit(v1)
	loc, _, err := vc.GetAtOrBefore(1, 10)
	if err != nil || loc != 1000 {
		t.Fatalf("committed read: got (%d, %v)", loc, err)
	}

	v2 := mustPush(t, vc, 1, 20, 2000)
	vc.Commit(v2)
	v3 := mustPush(t, vc, 1, 30, 3000)
	vc.Commit(v3)
	for _, tc := range []struct {
		ts, want uint64
	}{{10, 1000}, {15, 1000}, {20, 2000}, {29, 2000}, {30, 3000}, {99, 3000}} {
		loc, _, err := vc.GetAtOrBefore(1, tc.ts)
		if err != nil || loc != tc.want {
			t.Fatalf("GetAtOrBefore(ts=%d): got (%d, %v), want %d", tc.ts, loc, err, tc.want)
		}
	}
	if lc := vc.LatestCommitted(1); lc == nil || lc.Seq != 30 {
		t.Fatalf("LatestCommitted: %+v", lc)
	}
	if vc.ChainLen(1) != 3 || vc.Nodes() != 3 || vc.Keys() != 1 {
		t.Fatalf("stats: len=%d nodes=%d keys=%d", vc.ChainLen(1), vc.Nodes(), vc.Keys())
	}
	if got := vc.VersionAtLoc(1, 2000); got != v2 {
		t.Fatalf("VersionAtLoc(2000) = %v", got)
	}
	v2.SetLoc(2222)
	if got := vc.VersionAtLoc(1, 2222); got != v2 {
		t.Fatal("VersionAtLoc after SetLoc miss")
	}
}

func TestVersionAbortUnlinks(t *testing.T) {
	vc := NewVersionChains(8)
	v1 := mustPush(t, vc, 7, 5, 500)
	vc.Commit(v1)
	v2 := mustPush(t, vc, 7, 6, 600)
	vc.Abort(7, v2)
	loc, _, err := vc.GetAtOrBefore(7, 100)
	if err != nil || loc != 500 {
		t.Fatalf("after abort: got (%d, %v), want 500", loc, err)
	}
	if vc.ChainLen(7) != 1 {
		t.Fatalf("chain len after abort: %d", vc.ChainLen(7))
	}
	// Aborting the only node leaves an empty chain, reads miss.
	vc2 := NewVersionChains(8)
	only := mustPush(t, vc2, 9, 1, 100)
	vc2.Abort(9, only)
	if _, _, err := vc2.GetAtOrBefore(9, 50); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty-after-abort: want ErrNotFound, got %v", err)
	}
}

func TestPruneKeepsPinVisibleVersions(t *testing.T) {
	vc := NewVersionChains(8)
	locs := []uint64{100, 200, 300, 400, 500}
	for i, loc := range locs {
		v := mustPush(t, vc, 1, uint64(i+1)*10, loc) // seqs 10..50
		vc.Commit(v)
	}
	var dead []uint64
	// Pins at 25 and 40: visible set is {seq 20 (at pin 25), seq 40 (at
	// pin 40), seq 50 (head)}; 10 and 30 are dead.
	n := vc.Prune(1, []uint64{25, 40}, true, func(_, loc uint64) { dead = append(dead, loc) })
	if n != 2 || len(dead) != 2 {
		t.Fatalf("pruned %d (%v), want 2", n, dead)
	}
	for _, d := range dead {
		if d != 100 && d != 300 {
			t.Fatalf("wrong dead loc %d", d)
		}
	}
	// Pin-visible reads still exact.
	for _, tc := range []struct {
		ts, want uint64
	}{{25, 200}, {40, 400}, {99, 500}} {
		loc, _, err := vc.GetAtOrBefore(1, tc.ts)
		if err != nil || loc != tc.want {
			t.Fatalf("after prune GetAtOrBefore(%d): (%d, %v), want %d", tc.ts, loc, err, tc.want)
		}
	}
	// No pins: everything but the newest committed version dies.
	n = vc.Prune(1, nil, true, nil)
	if n != 2 || vc.ChainLen(1) != 1 {
		t.Fatalf("final prune: pruned %d, len %d", n, vc.ChainLen(1))
	}
	loc, _, err := vc.GetAtOrBefore(1, 99)
	if err != nil || loc != 500 {
		t.Fatalf("head after full prune: (%d, %v)", loc, err)
	}
	// Orphaned family (root deleted): without keepNewest even the head dies
	// when no pin sees it.
	n = vc.Prune(1, nil, false, nil)
	if n != 1 || vc.ChainLen(1) != 0 {
		t.Fatalf("orphan prune: pruned %d, len %d", n, vc.ChainLen(1))
	}
}

func TestPruneNeverTouchesPending(t *testing.T) {
	vc := NewVersionChains(8)
	v1 := mustPush(t, vc, 3, 10, 100)
	vc.Commit(v1)
	v2 := mustPush(t, vc, 3, 20, 200)
	vc.Commit(v2)
	mustPush(t, vc, 3, 30, 300) // pending
	if n := vc.Prune(3, nil, true, nil); n != 1 {
		t.Fatalf("pruned %d, want 1 (only seq 10)", n)
	}
	if vc.ChainLen(3) != 2 {
		t.Fatalf("chain len %d, want 2 (pending + newest committed)", vc.ChainLen(3))
	}
}

// TestConcurrentSnapshotReads races lock-free timestamp reads against
// pushes, commits, and prunes — the exact interleaving the firmware's
// snapshot read path relies on. Run with -race.
func TestConcurrentSnapshotReads(t *testing.T) {
	vc := NewVersionChains(64)
	const keys = 16
	var mu sync.Mutex // stands in for ns.mu: serializes mutations

	// Seed one committed version per key at seq 1.
	for k := uint64(0); k < keys; k++ {
		vc.Commit(mustPush(t, vc, k, 1, k+1))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: push+commit new versions, prune with a pin at 1
		defer wg.Done()
		seq := uint64(1)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 4000; i++ {
			seq++
			k := uint64(rng.Intn(keys))
			mu.Lock()
			v, err := vc.Push(k, seq, seq*10)
			if err != nil {
				mu.Unlock()
				t.Error(err)
				return
			}
			vc.Commit(v)
			if i%64 == 0 {
				vc.Prune(k, []uint64{1}, true, nil)
			}
			mu.Unlock()
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // readers pinned at ts=1 must always see the seed
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := uint64(0); k < keys; k++ {
					loc, _, err := vc.GetAtOrBefore(k, 1)
					if err != nil || loc != k+1 {
						t.Errorf("pinned read key %d: (%d, %v)", k, loc, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestPruneAllVisitsOnlyDeepChains(t *testing.T) {
	vc := NewVersionChains(32)
	// 16 shallow chains (one committed version each) and one deep chain.
	for key := uint64(1); key <= 16; key++ {
		vc.Commit(mustPush(t, vc, key, key, key*100))
	}
	for s := uint64(20); s <= 22; s++ {
		vc.Commit(mustPush(t, vc, 99, s, s*100))
	}
	visited := 0
	n := vc.PruneAll(nil, true, nil, func(int) { visited++ })
	if visited != 1 {
		t.Fatalf("visited %d chains, want just the deep one", visited)
	}
	if n != 2 || vc.ChainLen(99) != 1 {
		t.Fatalf("pruned %d (len %d), want 2 pruned, 1 kept", n, vc.ChainLen(99))
	}
	// Once every chain is shallow the pass is a no-op.
	visited = 0
	if n := vc.PruneAll(nil, true, nil, func(int) { visited++ }); n != 0 || visited != 0 {
		t.Fatalf("idle pass: pruned %d, visited %d, want 0/0", n, visited)
	}
	// An aborted head shrinks the chain back to shallow too.
	v := mustPush(t, vc, 5, 50, 5000)
	vc.Abort(5, v)
	if n := vc.PruneAll(nil, true, nil, nil); n != 0 {
		t.Fatalf("after abort: pruned %d, want 0", n)
	}
	// A pin-retained chain stays on the dirty list until the pin drops.
	vc.Commit(mustPush(t, vc, 7, 70, 7000))
	if n := vc.PruneAll([]uint64{7}, true, nil, nil); n != 0 || vc.ChainLen(7) != 2 {
		t.Fatalf("pinned prune: pruned %d, len %d, want 0/2", n, vc.ChainLen(7))
	}
	if n := vc.PruneAll(nil, true, nil, nil); n != 1 || vc.ChainLen(7) != 1 {
		t.Fatalf("unpinned prune: pruned %d, len %d, want 1/1", n, vc.ChainLen(7))
	}
	// Deleted-root pruning (keepNewest=false) still ranges every chain and
	// reclaims shallow ones.
	if n := vc.PruneAll(nil, false, nil, nil); n != 17 || vc.Nodes() != 0 {
		t.Fatalf("orphan prune: pruned %d, %d nodes left", n, vc.Nodes())
	}
}
