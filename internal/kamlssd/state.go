package kamlssd

import (
	"encoding/binary"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/flash"
)

// This file implements the §IV-C mapping-table swap: SwapOutIndex writes an
// idle namespace's index to flash pages and releases its DRAM, and the next
// access reloads it (loadIndex). Power-failure recovery is not here: Recover
// (recover.go) rebuilds every index from a log scan plus the battery-backed
// NVRAM and trusts no DRAM state.

// SwapOutIndex serializes the namespace's mapping table to flash pages and
// releases its DRAM ("KAML employs a simple policy to swap unused mapping
// tables out to flash to make room for those in use").
func (d *Device) SwapOutIndex(nsID uint32) error {
	// The index must not reference NVRAM staging entries when it goes to
	// flash (the serialized location would dangle once the flusher installs
	// the flash address). Swap targets idle namespaces (§IV-C), so drain
	// and verify; concurrent writers make the namespace ineligible.
	var blob []byte
	var lg *logState
	var ns *namespace
	for attempt := 0; ; attempt++ {
		d.Flush()
		var lerr error
		ns, lerr = d.lookupNS(nsID)
		if lerr != nil {
			return lerr
		}
		ns.mu.RLock()
		if ns.swapped {
			ns.mu.RUnlock()
			return nil
		}
		if ns.index == nil {
			// Snapshot shells carry no mapping table — they resolve reads
			// through the family's version chains. Nothing to swap.
			ns.mu.RUnlock()
			return nil
		}
		dirty := false
		ns.index.Range(func(_, val uint64) bool {
			if !location(val).isFlash() {
				dirty = true
				return false
			}
			return true
		})
		if !dirty {
			// Serialize under the same read-lock hold as the cleanliness
			// check so no write can slip in between.
			blob = ns.index.Serialize()
			capacity := ns.index.Capacity()
			header := make([]byte, 24)
			binary.LittleEndian.PutUint64(header[0:8], uint64(len(blob)))
			binary.LittleEndian.PutUint64(header[8:16], uint64(capacity))
			header[16] = byte(ns.index.Kind())
			blob = append(header, blob...)
			lg = d.logs[ns.logIDs[0]]
			ns.mu.RUnlock()
			break
		}
		ns.mu.RUnlock()
		if attempt > 8 {
			return fmt.Errorf("kamlssd: namespace %d is being written; cannot swap out", nsID)
		}
	}

	var pages []flash.PPN
	for off := 0; off < len(blob); off += d.fc.PageSize {
		end := off + d.fc.PageSize
		if end > len(blob) {
			end = len(blob)
		}
		lg.mu.Lock()
		ppn, err := lg.nextPPN(true)
		lg.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w in log %d", err, lg.id)
		}
		// blob is never modified after this point, so the array may keep
		// its full-page slices.
		if err := d.arr.ProgramPage(ppn, blob[off:end], d.buildOOB(pageTypeIndex, blob[off:end])); err != nil {
			return err
		}
		pages = append(pages, ppn)
	}

	ns.mu.Lock()
	if ns.swapped || ns.index == nil {
		ns.mu.Unlock()
		return nil // another actor swapped it while we programmed
	}
	// A write may have dirtied the index while the pages were programming;
	// swapping now would lose it. Abandon this attempt (the programmed
	// pages fail the liveness check and become garbage).
	dirty := false
	ns.index.Range(func(_, val uint64) bool {
		if !location(val).isFlash() {
			dirty = true
			return false
		}
		return true
	})
	if dirty {
		ns.mu.Unlock()
		return fmt.Errorf("kamlssd: namespace %d is being written; cannot swap out", nsID)
	}
	ns.swapPages = pages
	ns.swapped = true
	ns.setIndex(nil)
	ns.mu.Unlock()
	chunksPerPage := d.fc.PageSize / d.cfg.ChunkSize
	for _, p := range pages {
		d.creditValid(flashLoc(p, 0, chunksPerPage))
	}
	return nil
}

// loadIndex reads a swapped-out mapping table back into DRAM. Called with
// no locks held; concurrent loads of the same namespace serialize on the
// loading flag.
func (d *Device) loadIndex(nsID uint32) error {
	for {
		ns, lerr := d.lookupNS(nsID)
		if lerr != nil {
			return lerr
		}
		ns.mu.Lock()
		if !ns.swapped {
			ns.mu.Unlock()
			return nil
		}
		if !ns.loading {
			ns.loading = true
			pages := append([]flash.PPN(nil), ns.swapPages...)
			ns.mu.Unlock()
			return d.finishLoad(ns, pages)
		}
		ns.mu.Unlock()
		d.eng.Sleep(d.cfg.FlushPoll) // another actor is loading; wait
	}
}

func (d *Device) finishLoad(ns *namespace, pages []flash.PPN) (err error) {
	defer func() {
		if err != nil {
			ns.mu.Lock()
			ns.loading = false
			ns.mu.Unlock()
		}
	}()
	var blob []byte
	for _, p := range pages {
		data, _, rerr := d.arr.ReadPage(p)
		if rerr != nil {
			return fmt.Errorf("kamlssd: load index ns %d: %w", ns.id, rerr)
		}
		blob = append(blob, data...)
	}
	if len(blob) < 24 {
		return fmt.Errorf("kamlssd: load index ns %d: short blob", ns.id)
	}
	total := binary.LittleEndian.Uint64(blob[0:8])
	capacity := binary.LittleEndian.Uint64(blob[8:16])
	kind := IndexKind(blob[16])
	if uint64(len(blob)-24) < total {
		return fmt.Errorf("kamlssd: load index ns %d: truncated blob", ns.id)
	}
	// Rebuild at the original capacity so load-factor behaviour persists.
	tbl, derr := deserializeIndex(kind, blob[24:24+total], int(capacity), d.cfg.AutoGrowIndex)
	if derr != nil {
		return fmt.Errorf("kamlssd: load index ns %d: %w", ns.id, derr)
	}

	ns.mu.Lock()
	swapPages := ns.swapPages
	ns.setIndex(tbl)
	ns.swapped = false
	ns.loading = false
	ns.swapPages = nil
	ns.mu.Unlock()
	chunksPerPage := d.fc.PageSize / d.cfg.ChunkSize
	for _, p := range swapPages {
		d.discountValid(flashLoc(p, 0, chunksPerPage))
	}
	return nil
}
