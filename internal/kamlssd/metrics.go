package kamlssd

import (
	"strconv"

	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// devMetrics holds the firmware's pre-resolved telemetry instruments. They
// are the device's only counters: Device.Stats is a typed view that reads
// them back (DESIGN.md §11). Everything is registered eagerly when the
// device (or a recovery) begins — including one series per log — so a
// scrape taken before any traffic still shows the full metric surface (the
// CI smoke test depends on that), and counts a recovery scan makes appear
// on the recovered device's registry.
//
// Command latencies (Get/Put/Snapshot, per lifecycle stage) are recorded
// by the pipeline itself — kaml_cmdq_stage_seconds{op,stage} — because the
// pipeline owns the submit and completion edges; the firmware records what
// only it can see: its own operation counts, NVRAM occupancy, index
// population, the NVRAM→flash install lag, and per-log GC/wear state.
type devMetrics struct {
	gets, puts, putRecords *telemetry.Counter
	nvramHits              *telemetry.Counter // Gets served from NVRAM
	programs               *telemetry.Counter // pages programmed (host, GC, index swap)
	indexProbes            *telemetry.Counter // mapping-table slots scanned
	indexRetries           *telemetry.Counter // seqlock read retries on the lock-free Get path
	bytesWritten           *telemetry.Counter // host payload bytes accepted
	flashBytesWritten      *telemetry.Counter // record pages programmed x page size
	programRetries         *telemetry.Counter
	readRetries            *telemetry.Counter
	blocksRetired          *telemetry.Counter
	versionsPruned         *telemetry.Counter // MVCC versions reclaimed (no snapshot/txn sees them)
	pinnedReads            *telemetry.Counter // Gets resolved at an explicit commit timestamp

	// Recovery: counted by Recover on the post-crash device.
	recoveredRecords   *telemetry.Counter
	replayedValues     *telemetry.Counter
	droppedUncommitted *telemetry.Counter
	tornPagesSkipped   *telemetry.Counter

	nvramStaged  *telemetry.Gauge     // values resident in battery-backed NVRAM
	indexEntries *telemetry.Gauge     // live mapping-table entries, all namespaces
	flashInstall *telemetry.Histogram // NVRAM stage -> flash index swing, per record
	gcPause      *telemetry.Histogram // one victim collection, scan to erase
	chainLen     *telemetry.Histogram // version-chain length at prune time, per key

	// Per-log series, indexed by log ID.
	gcCopies      []*telemetry.Counter // live records relocated out of victims
	gcCopiedBytes []*telemetry.Counter // valid bytes relocated out of victims
	gcErases      []*telemetry.Counter // victim erases (incl. failed-erase retirements)
	wearMin       []*telemetry.Gauge   // erase-count spread across the log's blocks,
	wearMax       []*telemetry.Gauge   // refreshed at each victim scan
}

// newDevMetrics registers the firmware instruments in r.
func newDevMetrics(r *telemetry.Registry, numLogs int) *devMetrics {
	m := &devMetrics{}
	gauge := func(name, help string) *telemetry.Gauge {
		r.Help(name, help)
		return r.Gauge(name)
	}
	hist := func(name string, unit telemetry.Unit, help string) *telemetry.Histogram {
		r.Help(name, help)
		return r.Histogram(name, unit)
	}
	counter := func(name, help string) *telemetry.Counter {
		r.Help(name, help)
		return r.Counter(name)
	}
	m.nvramStaged = gauge("kaml_ssd_nvram_staged_values", "Values staged in battery-backed NVRAM awaiting flash install.")
	m.indexEntries = gauge("kaml_ssd_index_entries", "Live mapping-table entries across all namespaces.")
	m.indexRetries = counter("kaml_ssd_index_read_retries_total", "Seqlock re-reads and epoch restarts on the lock-free index read path.")
	m.flashInstall = hist("kaml_ssd_flash_install_seconds", telemetry.UnitSeconds, "Per-record latency from NVRAM staging to the flash index swing (virtual time).")
	m.gcPause = hist("kaml_gc_pause_seconds", telemetry.UnitSeconds, "Duration of one GC victim collection (virtual time).")
	m.versionsPruned = counter("kaml_mvcc_versions_pruned_total", "Dead MVCC versions unlinked from the version chains.")
	m.chainLen = hist("kaml_mvcc_chain_length", telemetry.UnitNone, "Per-key version-chain length observed at each pruning pass.")
	r.Help("kaml_gc_copied_bytes_total", "Valid bytes relocated out of GC victim blocks, per log.")
	r.Help("kaml_gc_erases_total", "GC block erases, per log.")
	r.Help("kaml_wear_erase_min", "Minimum block erase count observed in the log at the last victim scan.")
	r.Help("kaml_wear_erase_max", "Maximum block erase count observed in the log at the last victim scan.")
	r.Help("kaml_gc_copied_records_total", "Live records relocated out of GC victim blocks, per log.")
	m.gcCopies = make([]*telemetry.Counter, numLogs)
	m.gcCopiedBytes = make([]*telemetry.Counter, numLogs)
	m.gcErases = make([]*telemetry.Counter, numLogs)
	m.wearMin = make([]*telemetry.Gauge, numLogs)
	m.wearMax = make([]*telemetry.Gauge, numLogs)
	for i := 0; i < numLogs; i++ {
		lbl := strconv.Itoa(i)
		m.gcCopiedBytes[i] = r.Counter("kaml_gc_copied_bytes_total", "log", lbl)
		m.gcErases[i] = r.Counter("kaml_gc_erases_total", "log", lbl)
		m.wearMin[i] = r.Gauge("kaml_wear_erase_min", "log", lbl)
		m.wearMax[i] = r.Gauge("kaml_wear_erase_max", "log", lbl)
		m.gcCopies[i] = r.Counter("kaml_gc_copied_records_total", "log", lbl)
	}
	m.gets = counter("kaml_ssd_gets_total", "Get commands executed, including pinned (snapshot, GetAt, SI) reads.")
	m.puts = counter("kaml_ssd_puts_total", "Put commands acknowledged; a group commit counts every merged command.")
	m.putRecords = counter("kaml_ssd_put_records_total", "Records committed by acknowledged Puts.")
	m.nvramHits = counter("kaml_ssd_nvram_hits_total", "Gets served from battery-backed NVRAM.")
	m.programs = counter("kaml_ssd_programs_total", "Flash pages programmed: host records, GC relocation, and index-page moves.")
	m.indexProbes = counter("kaml_ssd_index_probes_total", "Mapping-table slots and version-chain hops scanned.")
	m.bytesWritten = counter("kaml_ssd_bytes_written_total", "Host payload bytes accepted by Puts.")
	m.flashBytesWritten = counter("kaml_ssd_flash_bytes_written_total", "Record-page bytes programmed to flash (host and GC); over bytes written, the write amplification.")
	m.programRetries = counter("kaml_ssd_program_retries_total", "Failed page programs rewritten to a fresh page.")
	m.readRetries = counter("kaml_ssd_read_retries_total", "Flash page reads retried after an injected read error.")
	m.blocksRetired = counter("kaml_ssd_blocks_retired_total", "Blocks taken out of service.")
	m.pinnedReads = counter("kaml_mvcc_pinned_reads_total", "Gets resolved against an explicit commit timestamp.")
	m.recoveredRecords = counter("kaml_ssd_recovered_records_total", "Flash record versions rebuilt into the version chains by recovery.")
	m.replayedValues = counter("kaml_ssd_replayed_values_total", "Committed NVRAM values re-staged for flushing by recovery.")
	m.droppedUncommitted = counter("kaml_ssd_dropped_uncommitted_total", "Staged NVRAM values of never-committed batches discarded by recovery.")
	m.tornPagesSkipped = counter("kaml_ssd_torn_pages_skipped_total", "Pages failing OOB magic/CRC or persistently unreadable during the recovery scan.")
	return m
}

// sumLogs totals a per-log counter family.
func sumLogs(cs []*telemetry.Counter) int64 {
	var n int64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}
