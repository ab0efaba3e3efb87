package ftl

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry/telemetrytest"
)

// TestStatsViewRegistry churns full and sub-4 KB writes (read-modify-write
// against flash) far past raw capacity so GC copies and erases, reads the
// result back, and checks every Stats field against the scraped registry
// series it views.
func TestStatsViewRegistry(t *testing.T) {
	fc := testFlashConfig()
	withDevice(t, fc, func(_ *sim.Engine, d *Device) {
		raw := fc.TotalPages() * (fc.PageSize / SectorSize)
		hot := raw / 4
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < raw*2; i++ {
			lba := rng.Intn(hot)
			var err error
			if i%4 == 0 {
				err = d.WritePartial(lba, 100, []byte("partial"))
			} else {
				err = d.WriteSector(lba, sectorFor(lba, byte(i)))
			}
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		d.Drain()
		buf := make([]byte, SectorSize)
		for lba := 0; lba < hot; lba += 7 {
			if err := d.ReadSector(lba, buf); err != nil && !errors.Is(err, ErrUnmapped) {
				t.Fatalf("read %d: %v", lba, err)
			}
		}
		st := d.Stats()
		scraped := telemetrytest.Scrape(d.Telemetry())
		for _, v := range []struct {
			field  string
			got    int64
			series string
		}{
			{"Reads", st.Reads, "ftl_reads_total"},
			{"Writes", st.Writes, "ftl_writes_total"},
			{"PartialWrites", st.PartialWrites, "ftl_partial_writes_total"},
			{"RMWReads", st.RMWReads, "ftl_rmw_reads_total"},
			{"GCCopies", st.GCCopies, "ftl_gc_copied_sectors_total"},
			{"GCErases", st.GCErases, "ftl_gc_erases_total"},
			{"Programs", st.Programs, "ftl_programs_total"},
		} {
			if s, ok := scraped[v.series]; !ok || v.got != s {
				t.Errorf("%s = %d, series %s = %d (present %v)", v.field, v.got, v.series, s, ok)
			}
			if v.got == 0 {
				t.Errorf("%s = 0: the workload should have moved it", v.field)
			}
		}
	})
}
