package kamlssd

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/kaml-ssd/kaml/internal/faultinject"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry/telemetrytest"
)

// statsView is one Stats field next to the registry series it views.
type statsView struct {
	field  string
	got    int64
	series string // family name in the exposition, summed over labels
}

// checkStatsViews asserts every Stats field equals its scraped registry
// series, and that the fields the workload exercised are non-zero.
func checkStatsViews(t *testing.T, dev *Device, moved func(field string) bool) {
	t.Helper()
	st := dev.Stats()
	scraped := telemetrytest.Scrape(dev.Telemetry())
	views := []statsView{
		{"Gets", st.Gets, "kaml_ssd_gets_total"},
		{"Puts", st.Puts, "kaml_ssd_puts_total"},
		{"PutRecords", st.PutRecords, "kaml_ssd_put_records_total"},
		{"NVRAMHits", st.NVRAMHits, "kaml_ssd_nvram_hits_total"},
		{"Programs", st.Programs, "kaml_ssd_programs_total"},
		{"GCCopies", st.GCCopies, "kaml_gc_copied_records_total"},
		{"GCErases", st.GCErases, "kaml_gc_erases_total"},
		{"IndexProbes", st.IndexProbes, "kaml_ssd_index_probes_total"},
		{"IndexReadRetries", st.IndexReadRetries, "kaml_ssd_index_read_retries_total"},
		{"BytesWritten", st.BytesWritten, "kaml_ssd_bytes_written_total"},
		{"FlashBytesWritten", st.FlashBytesWritten, "kaml_ssd_flash_bytes_written_total"},
		{"ProgramRetries", st.ProgramRetries, "kaml_ssd_program_retries_total"},
		{"ReadRetries", st.ReadRetries, "kaml_ssd_read_retries_total"},
		{"BlocksRetired", st.BlocksRetired, "kaml_ssd_blocks_retired_total"},
		{"VersionsPruned", st.VersionsPruned, "kaml_mvcc_versions_pruned_total"},
		{"PinnedReads", st.PinnedReads, "kaml_mvcc_pinned_reads_total"},
		{"RecoveredRecords", st.RecoveredRecords, "kaml_ssd_recovered_records_total"},
		{"ReplayedValues", st.ReplayedValues, "kaml_ssd_replayed_values_total"},
		{"DroppedUncommitted", st.DroppedUncommitted, "kaml_ssd_dropped_uncommitted_total"},
		{"TornPagesSkipped", st.TornPagesSkipped, "kaml_ssd_torn_pages_skipped_total"},
		{"PipelineSubmitted", st.PipelineSubmitted, "kaml_cmdq_submit_occupancy_count"},
		{"PipelineCompleted", st.PipelineCompleted, "kaml_cmdq_completed_total"},
		{"CoalescedPuts", st.CoalescedPuts, "kaml_cmdq_coalesced_puts_total"},
		{"CoalescerBatches", st.CoalescerBatches, "kaml_cmdq_batch_commits_total"},
		{"CoalescerRecords", st.CoalescerRecords, "kaml_cmdq_batch_records_sum"},
	}
	for _, v := range views {
		s, ok := scraped[v.series]
		if !ok {
			t.Errorf("%s: series %s missing from the exposition", v.field, v.series)
			continue
		}
		if v.got != s {
			t.Errorf("%s = %d, series %s = %d", v.field, v.got, v.series, s)
		}
		if moved(v.field) && v.got == 0 {
			t.Errorf("%s = 0: the workload should have moved it", v.field)
		}
	}
}

var recoveryField = map[string]bool{
	"RecoveredRecords": true, "ReplayedValues": true, "DroppedUncommitted": true, "TornPagesSkipped": true,
}

// TestStatsViewRegistry drives every firmware counter — concurrent
// coalesced Puts churning GC on SmallOptions geometry under program, read
// and erase faults, NVRAM and flash Gets, snapshot reads — then a
// torn-page power cut, and checks each Stats field against the scraped
// series on both the original and the recovered device. (A larger live
// set stalls a device this size: the device-full livelock.)
func TestStatsViewRegistry(t *testing.T) {
	fc := testFlashConfig()
	fc.BlocksPerChip, fc.PagesPerBlock = 32, 16 // SmallOptions geometry
	e := sim.NewEngine()
	e.Serialize(7)
	arr := flash.New(e, fc)
	ctrl := nvme.New(e, nvme.DefaultConfig())
	cfg := DefaultConfig(fc)
	cfg.NumLogs = 4
	dev := New(arr, ctrl, cfg)
	const (
		writers = 8
		hot     = 512
		size    = 3000
	)
	rounds := fc.TotalPages() * fc.PageSize / size / writers * 3 / 2
	arr.InjectEraseFailure(arr.BlockPPN(0, 0, 0, 0))
	arr.SetInjector(faultinject.New(faultinject.Config{Seed: 3, ReadFailProb: 0.02, ProgramFailProb: 0.002}))
	e.Go("test", func() {
		ns, err := dev.CreateNamespace(NamespaceAttrs{})
		if err != nil {
			t.Error(err)
			return
		}
		churn := func(rounds int) error {
			wg := e.NewWaitGroup()
			var failed error
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				e.Go(fmt.Sprintf("writer%d", w), func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < rounds && failed == nil; i++ {
						k := uint64(w*hot/writers + rng.Intn(hot/writers))
						if i%16 == 0 {
							k = uint64(hot + w*rounds + i) // cold: written once, stays live for GC to copy
						}
						if err := dev.Put(one(ns, k, val(uint64(i), size))); err != nil {
							failed = err
						}
						if i%16 == 0 {
							if _, err := dev.Get(ns, k); err != nil {
								failed = err
							}
						}
					}
				})
			}
			wg.Wait()
			return failed
		}
		if err := churn(rounds); err != nil {
			t.Errorf("churn: %v", err)
			return
		}
		snap, err := dev.SnapshotNamespace(ns)
		if err != nil {
			t.Error(err)
			return
		}
		dev.Flush()
		for k := uint64(0); k < hot; k++ {
			if _, err := dev.Get(snap, k); err != nil {
				t.Errorf("snapshot get %d: %v", k, err)
				return
			}
		}
		checkStatsViews(t, dev, func(f string) bool {
			// Seqlock retries need a reader and a writer racing on host
			// threads, which the serialized engine never does; the
			// recovery fields move only on a recovered device.
			return !recoveryField[f] && f != "IndexReadRetries"
		})

		// Cut power mid-churn, leaving a torn page for the recovery scan.
		arr.SetInjector(faultinject.New(faultinject.Config{CutAfterPrograms: 40, TornPageOnCut: true}))
		if err := churn(rounds); !errors.Is(err, ErrPowerLoss) {
			t.Errorf("churn across the cut: %v, want ErrPowerLoss", err)
			return
		}
		dev2, err := powerCycle(arr, ctrl, dev)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		defer dev2.Close()
		checkStatsViews(t, dev2, func(f string) bool { return recoveryField[f] && f != "DroppedUncommitted" })
	})
	e.Wait()
}
