package kamlssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/record"
)

// maxReadRetries bounds how many times Get re-issues a page read that
// failed with an injected (transient) medium error before giving up.
const maxReadRetries = 4

// undoEntry remembers a key's pre-batch index state for atomic rollback,
// and the staged version-chain node for commit stamping / abort popping.
type undoEntry struct {
	ns      *namespace
	key     uint64
	existed bool
	oldVal  uint64
	seq     uint64
	node    *hashindex.Version
}

// putScratch is execPut's per-call working set. It is pooled so that a
// steady stream of Puts reuses the slices instead of allocating them on
// every batch; execPut clears the pointers before returning it.
type putScratch struct {
	keys []nskey
	nss  []*namespace // the batch's distinct namespaces, first-seen order
	undo []undoEntry
	pins []uint64
}

var putScratchPool = sync.Pool{New: func() any { return new(putScratch) }}

// ns returns the batch namespace with the given ID, or nil if the batch
// has not resolved it yet.
func (sc *putScratch) ns(id uint32) *namespace {
	for _, ns := range sc.nss {
		if ns.id == id {
			return ns
		}
	}
	return nil
}

func (sc *putScratch) release() {
	clear(sc.nss)
	clear(sc.undo)
	sc.keys, sc.nss, sc.undo, sc.pins = sc.keys[:0], sc.nss[:0], sc.undo[:0], sc.pins[:0]
	putScratchPool.Put(sc)
}

// PutRecord is one element of an atomic Put batch (Table I: Put takes
// parallel arrays of namespace IDs, keys, values, and lengths).
type PutRecord struct {
	Namespace uint32
	Key       uint64
	Value     []byte
}

// Get retrieves the value stored under (nsID, key). The value is served
// from NVRAM if the record's latest version has not reached flash yet,
// otherwise from a flash page read (paper §III, Table I).
//
// Get executes on the calling actor through the pipeline's direct path
// (cmdq.RunDirect): the command counts against queue depth and honors
// backpressure and shutdown exactly like a submitted one, but skips the
// worker handoff and the future park/wake, so the flash access is the only
// blocking step left on a synchronous read. SubmitGet is the asynchronous
// form (it pipelines through the worker pool).
func (d *Device) Get(nsID uint32, key uint64) ([]byte, error) {
	d.ctrl.Submission()
	res := d.pipe.RunDirect(&cmdq.Command{Op: cmdq.OpGet, Namespace: nsID, Key: key})
	return res.Value, res.Err
}

// execGet is the firmware's Get handler; it runs on a pipeline worker.
//
// The index lookup is lock-free: it probes the namespace's seqlock table
// through the atomic reader handle, so concurrent Gets — on the same
// namespace or different ones — touch no firmware lock at all (§V-D; the
// seqlock protocol lives in hashindex/concurrent.go). The ns.mu.RLock
// path survives only as the fallback for tree indexes and for tables
// swapped out to flash.
func (d *Device) execGet(nsID uint32, key uint64) ([]byte, error) {
	if d.closed.Load() {
		return nil, d.closedErr()
	}
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return nil, lerr
	}
	d.met.gets.Inc()
	if ns.origin != 0 {
		// Snapshot shell: no mapping table of its own. Resolve through the
		// family's version chains at the snapshot's pinned commit timestamp
		// (snapshot.go); the walk is lock-free like the root's index probe.
		return d.readPinned(ns.fam, key, ns.cutoff)
	}

	// lookup resolves the key's current location. Only the first probe
	// sequence is charged (re-resolutions after a concurrent install or GC
	// move retrace hot cache lines).
	var err error
	charged := false
	lookup := func() (location, bool) {
		for {
			var val uint64
			var probes int
			var gerr error
			if rt := ns.reader.Load(); rt != nil {
				// Fast path: no lock. A handle loaded here stays valid for
				// the whole probe — retiring it (swap-out, reload, delete)
				// takes flash I/O, which cannot complete while this actor
				// is running, and mutations land in the table in place.
				val, probes, gerr = rt.Get(key)
			} else {
				ns.mu.RLock()
				if ns.swapped {
					ns.mu.RUnlock()
					if lerr := d.loadIndex(nsID); lerr != nil {
						err = lerr
						return 0, false
					}
					continue
				}
				val, probes, gerr = ns.index.Get(key)
				ns.mu.RUnlock()
			}
			if !charged {
				charged = true
				d.met.indexProbes.Add(int64(probes))
				d.ctrl.ComputeProbes(probes)
			}
			if gerr != nil {
				err = fmt.Errorf("%w: ns %d key %d", ErrKeyNotFound, nsID, key)
				return 0, false
			}
			return location(val), true
		}
	}
	// nvValue (d.nvFetch) copies a staged value out under the NVRAM lock.
	// A staged value whose batch has no commit marker yet is NOT served:
	// execPut installs index entries record by record (phase 1b) before
	// the batch's single commit point, so the index can briefly point at
	// a value that is not yet — and might never be — committed. Serving
	// it would be a dirty read; nvFetch waits out the window instead (see
	// mvcc.go — the pinned read path shares the same protocol).
	nvValue := d.nvFetch

	loc, ok := lookup()
	if !ok {
		return nil, err
	}
	if !loc.isFlash() {
		// Logically committed but still in NVRAM; serve from the buffer.
		v, hit, verr := nvValue(loc)
		if verr != nil {
			return nil, verr
		}
		if hit {
			d.met.nvramHits.Inc()
			return v, nil
		}
		// The flusher installed the flash location between our index
		// read and now (or the staging batch rolled back); fall through
		// with a fresh lookup.
		if loc, ok = lookup(); !ok {
			return nil, err
		}
	}

	// Optimistic read: the page read happens without any firmware lock,
	// so GC may relocate the record (and erase or rewrite the block)
	// mid-read. Re-validate the index afterwards and retry on movement —
	// the firmware equivalent of the baseline's LBA-range locks, without
	// their per-command cost (§V-B).
	readRetries := 0
	for attempt := 0; ; attempt++ {
		if !loc.isFlash() {
			// Moved back into NVRAM by a concurrent update.
			v, hit, verr := nvValue(loc)
			if verr != nil {
				return nil, verr
			}
			if hit {
				return v, nil
			}
			if loc, ok = lookup(); !ok {
				return nil, err
			}
			continue
		}
		data, _, rerr := d.arr.ReadPage(loc.ppn())
		if rerr != nil {
			// Either the block was erased under us (GC), power was cut,
			// or the medium returned a transient read error (fault
			// injection). A transient error retries the same location a
			// few times; a relocation re-resolves through the index.
			if errors.Is(rerr, flash.ErrPowerCut) {
				d.noticePowerLoss()
				return nil, ErrPowerLoss
			}
			if errors.Is(rerr, flash.ErrInjectedFailure) && readRetries < maxReadRetries {
				readRetries++
				d.met.readRetries.Inc()
				continue
			}
			cur, ok2 := lookup()
			if !ok2 {
				return nil, err
			}
			if cur == loc || attempt > 16 {
				return nil, rerr
			}
			loc = cur
			continue
		}
		cur, ok2 := lookup()
		if !ok2 {
			return nil, err
		}
		if cur != loc {
			loc = cur
			continue
		}
		rec, derr := record.At(data, loc.chunk(), d.cfg.ChunkSize)
		if derr != nil {
			return nil, derr
		}
		// Snapshot namespaces share records written under their origin,
		// so the on-flash header carries the family root's ID.
		if rec.Namespace != familyRoot(ns) || rec.Key != key {
			return nil, fmt.Errorf("kamlssd: index corruption: ns %d key %d resolved to ns %d key %d",
				nsID, key, rec.Namespace, rec.Key)
		}
		return rec.Value, nil
	}
}

// Put atomically inserts or updates a batch of records (Table I). The call
// returns once the batch is logically committed: every value is in
// battery-backed NVRAM and every index entry points at it. Flash programs
// and the final index swing happen in the background (§IV-D phases 2–3).
//
// Per-key atomicity comes from the key-lock table; the namespace lock is
// held per record (never across queue-space waits), so Puts to different
// namespaces — or to the same namespace routed to different logs — only
// serialize on the log they land on.
func (d *Device) Put(batch []PutRecord) error {
	return d.SubmitPut(batch).Wait().Err
}

// execPut is the firmware's atomic-batch handler. It runs on a pipeline
// worker for a directly-dispatched batch (merged == 0), or on a coalescer
// actor for a group commit carrying several merged Put commands (merged ==
// how many; the records of one merged command are contiguous, and the
// coalescer guarantees the merged batch is free of duplicate keys).
func (d *Device) execPut(batch []cmdq.Record, merged int) error {
	sc := putScratchPool.Get().(*putScratch)
	defer sc.release()
	// Phase 1a: lock every touched index entry, in sorted order.
	keys := sc.keys
	for _, r := range batch {
		keys = append(keys, nskey{ns: r.Namespace, key: r.Key})
	}
	sc.keys = keys
	slices.SortFunc(keys, func(a, b nskey) int {
		if c := cmp.Compare(a.ns, b.ns); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("%w: duplicate key %d in batch", ErrBadBatch, keys[i].key)
		}
	}

	if d.closed.Load() {
		return d.closedErr()
	}
	// Resolve and validate every namespace up front, and mark one
	// in-flight batch per namespace so snapshot creation waits out
	// half-staged batches (see SnapshotNamespace).
	defer func() {
		for _, ns := range sc.nss {
			ns.pendingBatches.Add(-1)
		}
	}()
	for _, r := range batch {
		if sc.ns(r.Namespace) != nil {
			continue
		}
		ns, lerr := d.lookupNS(r.Namespace)
		if lerr != nil {
			return lerr
		}
		if ns.readonly {
			return fmt.Errorf("%w: %d", ErrReadOnly, r.Namespace)
		}
		for {
			ns.mu.RLock()
			sw := ns.swapped
			ns.mu.RUnlock()
			if !sw {
				break
			}
			if lerr := d.loadIndex(r.Namespace); lerr != nil {
				return lerr
			}
		}
		ns.pendingBatches.Add(1)
		sc.nss = append(sc.nss, ns)
	}
	d.keyLks.lockAll(keys)

	// Phase 1b: stage every record in NVRAM under an open batch, point
	// the index at the NVRAM copies, and route the records to logs.
	// The batch is logically committed only when its NVRAM commit
	// marker is written after the loop — a power cut at ANY earlier
	// point leaves the batch uncommitted and recovery discards it
	// whole, which is what makes multi-record Put atomic. Old index
	// values are remembered so a mid-batch failure (mapping table
	// full, power cut) rolls back atomically.
	// Reserving the batch's whole seq range here — before any staging —
	// keeps commit timestamps batch-contiguous: a snapshot or SI pin taken
	// at the current seq can never split the batch (see NVRAM.beginBatch).
	d.nvMu.Lock()
	batchID, seqCur := d.nv.beginBatch(len(batch))
	d.nvMu.Unlock()
	totalProbes := 0
	newKeys := 0
	undo := sc.undo
	abort := func(aerr error) error {
		d.rollbackStaged(undo)
		d.nvMu.Lock()
		d.nv.abortBatch(batchID)
		d.noteNVRAMLocked()
		d.nvMu.Unlock()
		d.keyLks.unlockAll(keys)
		return aerr
	}
	for i, r := range batch {
		if i == 1 && d.splitCommit.Load() {
			// Test-only atomicity hole (TestingSplitBatchCommit): commit
			// the first record under its own marker, reopen a fresh batch
			// for the rest, and widen the window with a sleep so readers,
			// snapshots, and power cuts can land inside it. abort() below
			// rolls back only the still-open batch, so a cut here leaves
			// the first record committed — exactly the partial-batch
			// visibility the model checker must catch.
			d.nvMu.Lock()
			d.nv.commitBatch(batchID)
			batchID, seqCur = d.nv.beginBatch(len(batch) - 1)
			d.nvMu.Unlock()
			// The first record's marker is durable, so its version node is
			// commit-stamped now — a reader pinned inside the widened window
			// would otherwise wait forever on a "pending" version.
			if len(undo) > 0 {
				undo[0].ns.fam.chains.Commit(undo[0].node)
			}
			// The window must span several reader scheduling points to be
			// findable in a small seed budget. The lock-free read path cut
			// a Get to ~5 yield points, so the original 2µs window had
			// become near-invisible to the serialized explorer (first catch
			// past seed 40); at 80µs — a couple of whole Gets — seed 1
			// catches it, keeping the self-test cheap even under -race.
			d.eng.Sleep(80 * time.Microsecond)
		}
		// sealPacker below may release the log mutex while blocked on
		// queue space; a power cut can land in that window. Acknowledging
		// this batch after the cut would break crash consistency, so
		// re-check before every record and again before the commit
		// marker.
		if d.crashed.Load() || !d.arr.Powered() {
			d.noticePowerLoss()
			return abort(ErrPowerLoss)
		}
		ns := sc.ns(r.Namespace)

		seq := seqCur
		seqCur++
		d.nvMu.Lock()
		d.nv.stage(seq, r.Namespace, r.Key, r.Value, batchID)
		d.noteNVRAMLocked()
		d.nvMu.Unlock()
		stagedAt := d.eng.NowCheap()

		// One upsert does the supersede lookup and the NVRAM-location
		// install in a single probe sequence (the old Get+Put pair
		// probed the table twice per update). The table entry is a mirror
		// of the key's chain head; the superseded version stays alive in
		// the chain — its flash space is released at prune time, not here.
		ns.mu.Lock()
		old, probes, existed, perr := ns.index.Upsert(r.Key, uint64(nvramLoc(seq)))
		if perr != nil {
			ns.mu.Unlock()
			// Mapping table full: atomicity demands all-or-nothing, so
			// restore every already-staged entry to its previous value.
			return abort(fmt.Errorf("%w: ns %d", ErrIndexFull, r.Namespace))
		}
		node, verr := ns.fam.chains.Push(r.Key, seq, uint64(nvramLoc(seq)))
		if verr != nil {
			// Unreachable by construction (key locks serialize per-key
			// pushes and seqs are monotone), but fail atomically if it ever
			// trips: restore the mirror entry and roll the batch back.
			if existed {
				_, _, _ = ns.index.Put(r.Key, old)
			} else {
				_, _ = ns.index.Delete(r.Key)
			}
			ns.mu.Unlock()
			return abort(fmt.Errorf("kamlssd: version push ns %d key %d: %w", r.Namespace, r.Key, verr))
		}
		lgID := ns.logIDs[ns.rr%len(ns.logIDs)]
		ns.rr++
		ns.mu.Unlock()

		totalProbes += probes
		if !existed {
			newKeys++
		}
		undo = append(undo, undoEntry{ns: ns, key: r.Key, existed: existed, oldVal: old, seq: seq, node: node})
		sc.undo = undo

		rec := record.Record{Namespace: r.Namespace, Key: r.Key, Seq: seq, Value: r.Value}
		lg := d.logs[lgID]
		lg.mu.Lock()
		// sealPacker may release lg.mu while blocked on queue space or
		// free blocks, and another writer can refill the fresh packer in
		// that window — so sealing does not guarantee the record fits on
		// the next check. Loop until it does.
		for !lg.packer.Fits(rec.EncodedSize()) {
			lg.sealPacker()
			if d.crashed.Load() {
				// sealPacker bailed without draining; the packer may still
				// be full, so the record cannot be routed. Abort the batch.
				lg.mu.Unlock()
				return abort(ErrPowerLoss)
			}
		}
		if lg.packer.Empty() {
			lg.packerBorn = d.eng.NowCheap()
		}
		chunk := lg.packer.Add(rec)
		lg.pending = append(lg.pending, pendingRec{
			ns: r.Namespace, key: r.Key, seq: seq,
			chunk: chunk, size: rec.EncodedSize(),
			staged: stagedAt,
		})
		if lg.packer.FreeChunks() == 0 {
			lg.sealPacker()
		} else {
			lg.workCv.Signal() // arm the flusher's batching timer
		}
		lg.mu.Unlock()
		d.met.bytesWritten.Add(int64(len(r.Value)))
	}
	if d.crashed.Load() || !d.arr.Powered() {
		d.noticePowerLoss()
		return abort(ErrPowerLoss)
	}
	// Commit point: one atomic NVRAM write. From here the batch
	// survives any crash; the host is acknowledged after this.
	d.nvMu.Lock()
	d.nv.commitBatch(batchID)
	d.nvMu.Unlock()
	// Stamp every staged version committed (lock-free state stores — the
	// key locks are still held, so no competing mutation can interleave),
	// then prune each touched chain: versions superseded by this batch die
	// now unless a snapshot or transaction pin still sees them.
	for _, u := range undo {
		u.ns.fam.chains.Commit(u.node)
	}
	sc.pins = d.snapshotPins(sc.pins)
	pins := sc.pins
	pruned := 0
	for _, u := range undo {
		u.ns.mu.Lock()
		pruned += u.ns.fam.chains.Prune(u.key, pins, true, d.versionDead)
		u.ns.mu.Unlock()
	}
	d.notePruned(pruned)
	// A group commit acknowledges every merged Put command at once; Puts
	// counts logical commands, not commits (CoalescerBatches counts those).
	cmds := merged
	if cmds < 1 {
		cmds = 1
	}
	d.met.puts.Add(int64(cmds))
	d.met.putRecords.Add(int64(len(batch)))
	d.met.indexProbes.Add(int64(totalProbes))
	d.met.indexEntries.Add(int64(newKeys))
	d.keyLks.unlockAll(keys)
	// Put's index lookups run on the controller's lookup engine and
	// overlap with the NVRAM DMA, so the charged CPU work is the fixed
	// dispatch cost plus entry allocation for fresh keys (the cost that
	// makes Insert slower than Update in Figs. 5c/6c).
	d.ctrl.Compute(d.ctrl.Config().FirmwareFixedCost +
		time.Duration(newKeys)*d.ctrl.Config().InsertCost)
	return nil
}

// rollbackStaged undoes phase-1b staging for the already-staged prefix of
// a batch whose later record failed (mapping table full, power cut).
// Index entries are restored to their pre-batch values; records already
// routed to a packer become garbage automatically because the flusher's
// install CAS no longer matches, and the caller's abortBatch marks their
// sequences so recovery never resurrects flash copies. The batch's key
// locks are still held, so no concurrent Put can interleave.
func (d *Device) rollbackStaged(undo []undoEntry) {
	for _, u := range undo {
		u.ns.mu.Lock()
		if u.existed {
			_, _, _ = u.ns.index.Put(u.key, u.oldVal)
		} else {
			_, _ = u.ns.index.Delete(u.key)
		}
		// Pop the staged version: racing chain walkers skip aborted nodes
		// and re-resolve. The superseded version was never discounted (that
		// happens at prune time now), so there is nothing to credit back.
		u.ns.fam.chains.Abort(u.key, u.node)
		u.ns.mu.Unlock()
	}
}

// Flush blocks until every logically-committed record has been programmed
// to flash and its index entry points at flash. Mainly for tests and for
// orderly shutdown; KAML's durability does not depend on it (NVRAM is
// battery-backed).
func (d *Device) Flush() {
	for {
		d.nvMu.Lock()
		busy := d.nv.unflushed() > 0 && !d.crashed.Load()
		d.nvMu.Unlock()
		if !busy {
			return
		}
		d.eng.Sleep(d.cfg.FlushPoll)
	}
}

// NamespaceKeys returns every key in the namespace's mapping table in
// ascending order. It is the shard-migration hook: a migrator snapshots a
// namespace, enumerates the snapshot's frozen key set with this call, and
// streams each record to the destination device with Get+Put while new
// writes keep flowing to the origin (internal/cluster). Controller time is
// charged proportional to the table scan, like a snapshot's bulk copy.
func (d *Device) NamespaceKeys(nsID uint32) ([]uint64, error) {
	if d.closed.Load() {
		return nil, d.closedErr()
	}
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return nil, lerr
	}
	var keys []uint64
	var err error
	d.ctrl.Submit(func() {
		if ns.origin != 0 {
			// Snapshot shell: enumerate the family chains, keeping keys with
			// a committed version inside the snapshot's pinned view.
			ch := ns.fam.chains
			ch.Range(func(key uint64, _ *hashindex.Version) bool {
				if _, _, gerr := ch.GetAtOrBefore(key, ns.cutoff); gerr == nil {
					keys = append(keys, key)
				}
				return true
			})
			d.ctrl.ComputeProbes(len(keys) / 64)
			return
		}
		ns.mu.RLock()
		if ns.swapped {
			ns.mu.RUnlock()
			err = ErrSwappedOut
			return
		}
		keys = make([]uint64, 0, ns.index.Len())
		ns.index.Range(func(key, _ uint64) bool {
			keys = append(keys, key)
			return true
		})
		probes := ns.index.Len()
		ns.mu.RUnlock()
		d.ctrl.ComputeProbes(probes / 64)
	})
	if err != nil {
		return nil, err
	}
	// The hash table ranges in slot order; sort so migration copy order —
	// and with it the virtual-time schedule — never depends on hash layout.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// Exists reports whether the key is present without transferring the value
// (diagnostic helper; not a paper command).
func (d *Device) Exists(nsID uint32, key uint64) (bool, error) {
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return false, lerr
	}
	if ns.origin != 0 {
		_, _, err := ns.fam.chains.GetAtOrBefore(key, ns.cutoff)
		if errors.Is(err, hashindex.ErrNotFound) {
			return false, nil
		}
		return err == nil, nil
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if ns.swapped {
		return false, ErrSwappedOut
	}
	_, _, err := ns.index.Get(key)
	if errors.Is(err, hashindex.ErrNotFound) {
		return false, nil
	}
	return err == nil, nil
}
