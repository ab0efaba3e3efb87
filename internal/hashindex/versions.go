package hashindex

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// This file adds the multi-version layer on top of the mapping tables:
// per-key version chains in the style of "Multi-version Indexing in
// Flash-based Key-Value Stores". An out-of-place flash log already retains
// old record versions physically; a single-version index merely forgets
// them. VersionChains remembers: each key maps to a small singly-linked
// chain of (commitTS, location) nodes, newest first, so snapshot and
// time-travel reads can resolve "the value as of timestamp T" without
// cloning tables and without taking any lock.
//
// Concurrency contract — the same split the rest of the package uses:
//
//   - Mutations (Push, Commit, Abort, Unlink, SwingLoc, Prune) are
//     serialized by the caller (the firmware holds ns.mu), exactly like
//     ConcurrentTable mutations.
//   - Reads (Head, GetAtOrBefore, LatestCommitted, VersionAtLoc, Range)
//     are lock-free: the key→chain mapping is a seqlock ConcurrentTable
//     whose values index a grow-only cell directory published through an
//     atomic slice header, and every node field a reader consults is
//     atomic. Chain heads are published with a single atomic store, so a
//     reader always sees a fully-linked chain.
//
// Unlinked (pruned or aborted) nodes keep their prev pointers, so a reader
// that raced a prune simply walks a slightly stale chain; the firmware's
// optimistic read loop re-resolves if the location it fetched turns out to
// have been reclaimed. Nodes are reclaimed by Go's GC once the last racing
// reader drops them.

// VersionState is the lifecycle of one chain node.
type VersionState uint32

// Version lifecycle states.
const (
	// VersionPending: staged in NVRAM, commit marker not yet written. A
	// snapshot read at ts >= Seq cannot decide visibility until the batch
	// commits or aborts; GetAtOrBefore reports it so the caller can wait.
	VersionPending VersionState = iota
	// VersionCommitted: the batch's NVRAM commit marker is written; the
	// version is durable and visible to any timestamp >= Seq.
	VersionCommitted
	// VersionAborted: the batch rolled back; the node is skipped by readers
	// and unlinked by the writer.
	VersionAborted
)

// Version is one node of a per-key chain. Seq is the commit timestamp (the
// device's NVRAM sequence — see the commit-TS oracle in internal/kamlssd);
// it is immutable after Push. loc is the packed physical location and moves
// as the record migrates (NVRAM → flash install, GC relocation).
type Version struct {
	Seq   uint64
	loc   atomic.Uint64
	state atomic.Uint32
	prev  atomic.Pointer[Version]
}

// Loc returns the node's current packed location.
func (v *Version) Loc() uint64 { return v.loc.Load() }

// SetLoc publishes a new physical location (flash install, GC relocation).
func (v *Version) SetLoc(loc uint64) { v.loc.Store(loc) }

// State returns the node's lifecycle state.
func (v *Version) State() VersionState { return VersionState(v.state.Load()) }

// Prev returns the next-older node, or nil at the chain's tail.
func (v *Version) Prev() *Version { return v.prev.Load() }

// Per-entry DRAM cost constants. MemoryBytes estimates are built from these
// instead of magic numbers so the versioned index reports honest footprint
// (see Table.MemoryBytes and VersionChains.MemoryBytes).
const (
	// TableEntryBytes is one Table slot: 8B key + 8B value + 1B state.
	TableEntryBytes = 17
	// ConcurrentEntryBytes is one ConcurrentTable slot: the seqlock counter
	// adds 8B and the state field pads to a word (8+8+8+8).
	ConcurrentEntryBytes = 32
	// VersionNodeBytes is one chain node: seq + loc + state (padded) + prev.
	VersionNodeBytes = 32
	// chainCellBytes is one directory cell: the head pointer plus the
	// directory slot referencing it.
	chainCellBytes = 16
)

// chainCell anchors one key's chain.
type chainCell struct {
	head atomic.Pointer[Version]
}

// VersionChains maps keys to version chains. The zero value is not usable;
// call NewVersionChains.
type VersionChains struct {
	idx   *ConcurrentTable // key -> cell directory index + 1
	cells atomic.Pointer[[]*chainCell]
	nodes atomic.Int64 // linked nodes across all chains

	// dirty tracks keys whose chains hold more than one node, i.e. the only
	// chains a prune pass could possibly shorten. The GC's per-cycle
	// PruneAll visits just these instead of ranging over every key — under
	// a steady single-version workload the pass is a no-op, not an O(keys)
	// scan. Maintained by the mutation paths (Push/Abort/Prune), so it
	// shares their serialization contract; readers never touch it.
	dirty map[uint64]struct{}
}

// NewVersionChains returns an empty chain set sized for capacity keys. The
// key directory always auto-grows: capacity pressure is enforced by the
// namespace's mapping table, and a full directory here would strand staged
// versions with no chain to live in.
func NewVersionChains(capacity int) *VersionChains {
	if capacity < 8 {
		capacity = 8
	}
	vc := &VersionChains{
		idx:   NewConcurrent(capacity, true),
		dirty: make(map[uint64]struct{}),
	}
	cells := make([]*chainCell, 0, capacity)
	vc.cells.Store(&cells)
	return vc
}

// noteDepth refreshes key's dirty-set membership from its chain depth.
// Caller serializes (same contract as the mutation that changed the chain).
func (vc *VersionChains) noteDepth(key uint64, c *chainCell) {
	if h := c.head.Load(); h != nil && h.prev.Load() != nil {
		vc.dirty[key] = struct{}{}
	} else {
		delete(vc.dirty, key)
	}
}

// cell returns key's chain cell, or nil.
func (vc *VersionChains) cell(key uint64) *chainCell {
	ci, _, err := vc.idx.Get(key)
	if err != nil {
		return nil
	}
	cells := *vc.cells.Load()
	if ci == 0 || int(ci) > len(cells) {
		return nil
	}
	return cells[ci-1]
}

// Push links a new pending version (seq, loc) at the head of key's chain
// and returns the node. seq must exceed every seq already in the chain
// (per-key writes are serialized by the firmware's key locks, and seqs are
// drawn from a monotone oracle, so this holds by construction). Mutation:
// caller serializes.
func (vc *VersionChains) Push(key, seq, loc uint64) (*Version, error) {
	c := vc.cell(key)
	if c == nil {
		// New key: publish the cell before the directory entry so any
		// reader that finds the index entry also finds the cell.
		c = &chainCell{}
		old := *vc.cells.Load()
		cells := append(old, c)
		vc.cells.Store(&cells)
		if _, _, err := vc.idx.Put(key, uint64(len(cells))); err != nil {
			return nil, fmt.Errorf("hashindex: version directory: %w", err)
		}
	}
	v := &Version{Seq: seq}
	v.loc.Store(loc)
	if h := c.head.Load(); h != nil {
		if h.Seq >= seq {
			return nil, fmt.Errorf("hashindex: version seq %d not newer than head %d for key %d", seq, h.Seq, key)
		}
		v.prev.Store(h)
	}
	c.head.Store(v) // single atomic publish: readers see a complete chain
	vc.nodes.Add(1)
	vc.noteDepth(key, c)
	return v, nil
}

// Commit marks v visible. Called after the owning batch's NVRAM commit
// marker is written.
func (vc *VersionChains) Commit(v *Version) { v.state.Store(uint32(VersionCommitted)) }

// Abort marks v dead and unlinks it from key's chain. Rollback pops in
// reverse staging order, so v is normally the head, but the walk handles
// interior nodes too. Mutation: caller serializes.
func (vc *VersionChains) Abort(key uint64, v *Version) {
	v.state.Store(uint32(VersionAborted))
	vc.unlink(key, v)
}

// unlink removes v from key's chain (it keeps its own prev pointer for
// racing readers). Caller serializes mutations.
func (vc *VersionChains) unlink(key uint64, v *Version) {
	c := vc.cell(key)
	if c == nil {
		return
	}
	defer vc.noteDepth(key, c)
	if c.head.Load() == v {
		c.head.Store(v.prev.Load())
		vc.nodes.Add(-1)
		return
	}
	for n := c.head.Load(); n != nil; n = n.prev.Load() {
		if n.prev.Load() == v {
			n.prev.Store(v.prev.Load())
			vc.nodes.Add(-1)
			return
		}
	}
}

// Head returns the newest node of key's chain (any state), or nil.
func (vc *VersionChains) Head(key uint64) *Version {
	c := vc.cell(key)
	if c == nil {
		return nil
	}
	return c.head.Load()
}

// ErrPendingVersion is returned by GetAtOrBefore when visibility at the
// requested timestamp depends on a batch whose commit marker is not yet
// written. The caller waits for the batch to settle and retries — the same
// protocol the firmware's read path already uses for staged values.
var ErrPendingVersion = errors.New("hashindex: version pending commit")

// GetAtOrBefore resolves key as of timestamp ts: the newest committed
// version with Seq <= ts. hops counts chain nodes visited (the firmware
// charges DRAM probes for them). Lock-free. Returns ErrNotFound when no
// version <= ts exists, or ErrPendingVersion when an undecided version
// <= ts blocks the answer.
func (vc *VersionChains) GetAtOrBefore(key, ts uint64) (loc uint64, hops int, err error) {
	for n := vc.Head(key); n != nil; n = n.prev.Load() {
		hops++
		if n.Seq > ts {
			continue
		}
		switch VersionState(n.state.Load()) {
		case VersionCommitted:
			return n.loc.Load(), hops, nil
		case VersionPending:
			return 0, hops, ErrPendingVersion
		default: // aborted: racing reader on an unlinked node; skip
		}
	}
	return 0, hops, ErrNotFound
}

// LatestCommitted returns the newest committed version of key, or nil.
// Lock-free; used for first-committer-wins validation and GC liveness.
func (vc *VersionChains) LatestCommitted(key uint64) *Version {
	for n := vc.Head(key); n != nil; n = n.prev.Load() {
		if VersionState(n.state.Load()) == VersionCommitted {
			return n
		}
	}
	return nil
}

// VersionAtLoc returns the chain node currently pointing at loc, or nil.
// GC uses it for liveness ("is this flash record referenced by any live
// version?") and relocation.
func (vc *VersionChains) VersionAtLoc(key, loc uint64) *Version {
	for n := vc.Head(key); n != nil; n = n.prev.Load() {
		if n.loc.Load() == loc && VersionState(n.state.Load()) != VersionAborted {
			return n
		}
	}
	return nil
}

// ChainLen returns the number of linked nodes in key's chain.
func (vc *VersionChains) ChainLen(key uint64) int {
	n := 0
	for v := vc.Head(key); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}

// Keys returns the number of keys with a (possibly empty) chain.
func (vc *VersionChains) Keys() int { return vc.idx.Len() }

// Nodes returns the number of linked version nodes across all chains.
func (vc *VersionChains) Nodes() int { return int(vc.nodes.Load()) }

// MemoryBytes estimates the DRAM footprint: the key directory, the cell
// anchors, and every linked node, each priced by its per-entry constant.
func (vc *VersionChains) MemoryBytes() int {
	return vc.idx.MemoryBytes() +
		len(*vc.cells.Load())*chainCellBytes +
		vc.Nodes()*VersionNodeBytes
}

// Range calls fn with each key and its current chain head until fn returns
// false. Like ConcurrentTable.Range, the scan is not an atomic snapshot.
func (vc *VersionChains) Range(fn func(key uint64, head *Version) bool) {
	cells := *vc.cells.Load()
	vc.idx.Range(func(key, ci uint64) bool {
		if ci == 0 || int(ci) > len(cells) {
			return true
		}
		return fn(key, cells[ci-1].head.Load())
	})
}

// Prune unlinks every committed version of key that is invisible to all of
// pins (ascending commit timestamps). A version v is visible at pin p iff
// v.Seq <= p and no newer committed version has Seq <= p. With keepNewest
// set (the normal case for a live, writable namespace) the newest committed
// version is additionally kept, because every future timestamp resolves to
// it; without it (the namespace was deleted and only pinned snapshots still
// reference the chain) even the newest version dies unless a pin sees it.
// Pending nodes are never touched. onDead is called once per unlinked node
// with its (seq, loc) so the firmware can release the flash space. Returns
// the number of versions reclaimed. Mutation: caller serializes.
func (vc *VersionChains) Prune(key uint64, pins []uint64, keepNewest bool, onDead func(seq, loc uint64)) int {
	c := vc.cell(key)
	if c == nil {
		return 0
	}
	pi := len(pins) - 1
	pruned := 0
	var keep *Version   // last kept node, the unlink anchor
	seenNewest := false // newest committed node handled
	n := c.head.Load()
	for n != nil {
		next := n.prev.Load()
		switch {
		case VersionState(n.state.Load()) != VersionCommitted:
			keep = n // pending (or racing abort): leave alone
		default:
			visible := false
			for pi >= 0 && pins[pi] >= n.Seq {
				visible = true // pins in [n.Seq, nextNewerCommitted.Seq)
				pi--
			}
			if visible || (!seenNewest && keepNewest) {
				keep = n
			} else {
				if keep == nil {
					c.head.Store(next)
				} else {
					keep.prev.Store(next)
				}
				vc.nodes.Add(-1)
				pruned++
				if onDead != nil {
					onDead(n.Seq, n.loc.Load())
				}
			}
			seenNewest = true
		}
		n = next
	}
	vc.noteDepth(key, c)
	return pruned
}

// PruneAll prunes chains against pins; see Prune. Returns total versions
// reclaimed. onChain, when non-nil, observes each visited chain's length
// after pruning (the chain-length telemetry histogram). Mutation: caller
// serializes.
//
// With keepNewest set (a live namespace) only dirty chains — those holding
// more than one node — can shed anything, so the pass walks a sorted
// snapshot of the dirty set and is a no-op when every chain is shallow.
// The sort keeps the onDead schedule deterministic: map iteration would
// randomize the lock/discount order across otherwise identical runs.
// Without keepNewest (the namespace was deleted and only pinned snapshots
// keep it alive) even single-node chains can die, so the pass ranges over
// every key.
func (vc *VersionChains) PruneAll(pins []uint64, keepNewest bool, onDead func(seq, loc uint64), onChain func(length int)) int {
	total := 0
	visit := func(key uint64) {
		total += vc.Prune(key, pins, keepNewest, onDead)
		if onChain != nil {
			onChain(vc.ChainLen(key))
		}
	}
	if keepNewest {
		if len(vc.dirty) == 0 {
			return 0
		}
		keys := make([]uint64, 0, len(vc.dirty))
		for k := range vc.dirty {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			visit(k)
		}
		return total
	}
	vc.Range(func(key uint64, _ *Version) bool {
		visit(key)
		return true
	})
	return total
}
