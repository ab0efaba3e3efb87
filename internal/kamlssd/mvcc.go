package kamlssd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/record"
)

// This file is the device's MVCC surface. The commit-timestamp oracle is
// the NVRAM sequence counter: every record of a Put batch is stamped with a
// seq from the contiguous range the batch reserved at begin, and the
// batch's NVRAM commit marker is what makes those timestamps "committed".
// Each family root keeps a per-key version chain (hashindex.VersionChains)
// of every retained (commitTS, location) pair; the namespace mapping table
// is reduced to a mirror of each chain's head so the zero-contention Get
// path is untouched. Snapshots, GetAt time-travel reads, and SI
// transactions all resolve reads by walking a chain to the newest committed
// version at-or-before a pinned timestamp — no lock, no clone.

// CommitTS returns the device's current commit timestamp (the NVRAM
// sequence counter). Timestamps below it may still belong to in-flight
// batches; use PinCurrent for a timestamp that is guaranteed settled.
func (d *Device) CommitTS() uint64 {
	d.nvMu.Lock()
	ts := d.nv.nvSeq
	d.nvMu.Unlock()
	return ts
}

// PinCurrent pins and returns the newest settled commit timestamp: every
// version at or below it belongs to a batch that has already committed or
// aborted, so a reader at this timestamp can never be split by — or stall
// behind — an in-flight batch. This is the begin-timestamp source for SI
// transactions. The caller must release the pin with ReleasePin; while
// pinned, version pruning keeps every version visible at the timestamp.
func (d *Device) PinCurrent() uint64 {
	d.nvMu.Lock()
	ts := d.nv.settledSeq()
	d.nvMu.Unlock()
	d.pinTS(ts)
	return ts
}

// pinTS registers a transient pin at ts (refcounted).
func (d *Device) pinTS(ts uint64) {
	d.pinMu.Lock()
	d.pins[ts]++
	d.pinMu.Unlock()
}

// ReleasePin drops one reference to a transient pin taken by PinCurrent
// (or internally by GetAt). Once a timestamp has no pin and no snapshot
// cutoff, the versions only it could see become prunable.
func (d *Device) ReleasePin(ts uint64) {
	d.pinMu.Lock()
	if n := d.pins[ts]; n <= 1 {
		delete(d.pins, ts)
	} else {
		d.pins[ts] = n - 1
	}
	d.pinMu.Unlock()
}

// pinsLocked gathers every pinned commit timestamp — snapshot cutoffs plus
// transient pins — ascending and deduplicated, into pins (overwritten from
// the start), so steady-state callers reuse one buffer. The list is global
// rather than per-family: a foreign family's pin at worst retains a few
// extra versions until the next prune. Caller holds d.mu (read or write).
func (d *Device) pinsLocked(pins []uint64) []uint64 {
	pins = pins[:0]
	for _, ns := range d.namespaces {
		if ns.readonly && ns.cutoff != noCutoff {
			pins = append(pins, ns.cutoff)
		}
	}
	d.pinMu.Lock()
	for ts := range d.pins {
		pins = append(pins, ts)
	}
	d.pinMu.Unlock()
	slices.Sort(pins)
	out := pins[:0]
	for i, p := range pins {
		if i == 0 || p != pins[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// snapshotPins is pinsLocked for callers not holding d.mu.
func (d *Device) snapshotPins(pins []uint64) []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pinsLocked(pins)
}

// versionDead releases the flash space of a pruned version. NVRAM-resident
// versions have nothing to release (flash space is credited only at
// install, and a dead chain node makes the install a no-op).
func (d *Device) versionDead(_ uint64, loc uint64) {
	if l := location(loc); l.isFlash() {
		d.discountValid(l)
	}
}

// pruneFamilyLocked prunes fam's chains against the currently pinned
// timestamps. Chain heads are protected only while the family root is
// alive. Caller holds d.mu.
func (d *Device) pruneFamilyLocked(fam *family) {
	pins := d.pinsLocked(nil)
	keepHead := fam.rootLive
	fam.root.mu.Lock()
	n := fam.chains.PruneAll(pins, keepHead, d.versionDead, d.chainLenObs)
	fam.root.mu.Unlock()
	d.notePruned(n)
}

// pruneFamilies runs one prune pass over every family. It is called from
// the GC loop each cycle — and only from there, which is what lets it keep
// its working set in device-level scratch buffers: an idle cycle (nothing
// to prune) must not allocate, or the GC ticker would tax every
// measurement window on the device (the Get alloc budget caught exactly
// that).
func (d *Device) pruneFamilies() {
	d.mu.RLock()
	fams := d.gcPruneFams[:0]
	keep := d.gcPruneKeep[:0]
	for _, f := range d.families {
		fams = append(fams, f)
	}
	// Deterministic prune order: map iteration would randomize the
	// lock/discount schedule across runs.
	slices.SortFunc(fams, func(a, b *family) int { return cmp.Compare(a.root.id, b.root.id) })
	for _, f := range fams {
		keep = append(keep, f.rootLive)
	}
	pins := d.pinsLocked(d.gcPrunePins)
	d.mu.RUnlock()
	for i, f := range fams {
		f.root.mu.Lock()
		n := f.chains.PruneAll(pins, keep[i], d.versionDead, d.chainLenObs)
		f.root.mu.Unlock()
		d.notePruned(n)
	}
	d.gcPruneFams, d.gcPruneKeep, d.gcPrunePins = fams, keep, pins
}

func (d *Device) notePruned(n int) {
	if n > 0 {
		d.met.versionsPruned.Add(int64(n))
	}
}

// GetAt serves the newest version of key whose commit timestamp is <= ts —
// KAML's time-travel read (Table I extension). The read acquires no lock
// and never conflicts with writers: the chain walk is lock-free and the
// timestamp is transiently pinned for the duration so pruning cannot pull
// the resolved version out from under the flash read. Exactness is
// guaranteed for timestamps that are durably pinned (a snapshot's cutoff,
// an SI transaction's begin timestamp); for arbitrary historical
// timestamps the answer is the oldest *retained* version at-or-before ts.
func (d *Device) GetAt(nsID uint32, key uint64, ts uint64) ([]byte, error) {
	if d.closed.Load() {
		return nil, d.closedErr()
	}
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return nil, lerr
	}
	if ts > ns.cutoff {
		ts = ns.cutoff // snapshot shells clamp to their pinned view
	}
	d.ctrl.Submission()
	d.pinTS(ts)
	defer d.ReleasePin(ts)
	d.met.gets.Inc()
	return d.readPinned(ns.fam, key, ts)
}

// LatestCommittedSeq returns the commit timestamp of the key's newest
// committed version, or 0 when the key has none. Lock-free. This is the
// first-committer-wins validation probe for SI transactions: a writer that
// began at ts aborts if the key's latest committed timestamp moved past ts.
func (d *Device) LatestCommittedSeq(nsID uint32, key uint64) (uint64, error) {
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return 0, lerr
	}
	if v := ns.fam.chains.LatestCommitted(key); v != nil {
		return v.Seq, nil
	}
	return 0, nil
}

// VersionStats reports the shape of the namespace family's version chains:
// distinct keys, total retained versions, and the longest chain.
func (d *Device) VersionStats(nsID uint32) (keys, versions, maxChain int, err error) {
	ns, lerr := d.lookupNS(nsID)
	if lerr != nil {
		return 0, 0, 0, lerr
	}
	ch := ns.fam.chains
	ch.Range(func(k uint64, _ *hashindex.Version) bool {
		if l := ch.ChainLen(k); l > 0 {
			keys++
			versions += l
			if l > maxChain {
				maxChain = l
			}
		}
		return true
	})
	return keys, versions, maxChain, nil
}

// nvFetch copies a staged value out of NVRAM under the NVRAM lock (the
// buffer itself is pooled and may be recycled after release). A staged
// value whose batch has no commit marker yet is NOT served — that would be
// a dirty read (the batch may still abort). The reader waits out the
// window; the writer resolves it in bounded virtual time by either writing
// the marker or rolling the chain back. hit is false when the location no
// longer names a staged value (installed to flash, or rolled back).
func (d *Device) nvFetch(loc location) (v []byte, hit bool, err error) {
	for {
		if !d.nv.hasStaged() {
			// Lock-free miss: nothing is staged anywhere, so probing the map
			// under nvMu could only miss too (the flusher already installed
			// every value this location could name).
			return nil, false, nil
		}
		d.nvMu.Lock()
		v, committed, ok := d.nv.valueState(loc.seq())
		if ok && committed {
			v = append([]byte(nil), v...)
		}
		d.nvMu.Unlock()
		if !ok {
			return nil, false, nil
		}
		if committed {
			return v, true, nil
		}
		if d.crashed.Load() || !d.arr.Powered() {
			d.noticePowerLoss()
			return nil, false, ErrPowerLoss
		}
		d.eng.Sleep(d.cfg.FlushPoll)
	}
}

// readPinned resolves key against fam's version chains at commit timestamp
// ts and fetches the value from NVRAM or flash. It is the shared engine
// behind snapshot Gets, GetAt, and SI transaction reads. The chain walk is
// lock-free; a pending version at-or-before ts is waited out exactly like
// execGet's uncommitted-NVRAM window. The flash read is optimistic: GC may
// relocate the record mid-read, so the chain is re-resolved afterwards and
// the read retried on movement.
func (d *Device) readPinned(fam *family, key uint64, ts uint64) ([]byte, error) {
	d.met.pinnedReads.Inc()
	charged := false
	var err error
	resolve := func() (location, bool) {
		for {
			loc, hops, rerr := fam.chains.GetAtOrBefore(key, ts)
			if !charged {
				charged = true
				d.met.indexProbes.Add(int64(hops))
				d.ctrl.ComputeProbes(hops)
			}
			if rerr == nil {
				return location(loc), true
			}
			if errors.Is(rerr, hashindex.ErrNotFound) {
				err = fmt.Errorf("%w: ns %d key %d @%d", ErrKeyNotFound, fam.root.id, key, ts)
				return 0, false
			}
			// ErrPendingVersion: a version <= ts is staged but its batch is
			// undecided. Wait for the commit marker or the rollback.
			if d.crashed.Load() || !d.arr.Powered() {
				d.noticePowerLoss()
				err = ErrPowerLoss
				return 0, false
			}
			d.eng.Sleep(d.cfg.FlushPoll)
		}
	}

	loc, ok := resolve()
	if !ok {
		return nil, err
	}
	readRetries := 0
	for attempt := 0; ; attempt++ {
		if !loc.isFlash() {
			v, hit, verr := d.nvFetch(loc)
			if verr != nil {
				return nil, verr
			}
			if hit {
				d.met.nvramHits.Inc()
				return v, nil
			}
			// Installed to flash between the chain walk and now; the chain
			// node's location was swung, so re-resolve.
			if loc, ok = resolve(); !ok {
				return nil, err
			}
			continue
		}
		data, _, rerr := d.arr.ReadPage(loc.ppn())
		if rerr != nil {
			if errors.Is(rerr, flash.ErrPowerCut) {
				d.noticePowerLoss()
				return nil, ErrPowerLoss
			}
			if errors.Is(rerr, flash.ErrInjectedFailure) && readRetries < maxReadRetries {
				readRetries++
				d.met.readRetries.Inc()
				continue
			}
			cur, ok2 := resolve()
			if !ok2 {
				return nil, err
			}
			if cur == loc || attempt > 16 {
				return nil, rerr
			}
			loc = cur
			continue
		}
		cur, ok2 := resolve()
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
		if rec.Namespace != fam.root.id || rec.Key != key {
			return nil, fmt.Errorf("kamlssd: version chain corruption: ns %d key %d @%d resolved to ns %d key %d",
				fam.root.id, key, ts, rec.Namespace, rec.Key)
		}
		return rec.Value, nil
	}
}
