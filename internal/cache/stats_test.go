package cache

import (
	"errors"
	"testing"

	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/storage"
	"github.com/kaml-ssd/kaml/internal/telemetry/telemetrytest"
)

// TestStatsViewRegistry runs commits that overflow a small cache, hit and
// miss reads, a wait-die kill, explicit aborts, an SI commit, an SI abort
// and an SI validation failure, then checks every Stats field against the
// scraped registry series it views.
func TestStatsViewRegistry(t *testing.T) {
	withCache(t, 4<<10, 1, func(e *sim.Engine, c *Cache) {
		tbl, err := c.CreateTable("t", storage.TableHint{ExpectedRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 8; k++ {
			tx := c.Begin()
			if err := tx.Insert(tbl, k, make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		rd := c.Begin()
		for _, k := range []uint64{7, 0} { // 7 is cached, 0 was evicted
			if _, err := rd.Read(tbl, k); err != nil {
				t.Fatal(err)
			}
		}
		rd.Abort()

		older, younger := c.Begin(), c.Begin()
		if err := older.Update(tbl, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := younger.Read(tbl, 1); !errors.Is(err, storage.ErrAborted) {
			t.Fatalf("younger read under an older X lock: %v, want a wait-die kill", err)
		}
		older.Abort()

		si1, si2, si3 := c.BeginSI(), c.BeginSI(), c.BeginSI()
		if err := si1.Update(tbl, 2, []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := si1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := si2.Update(tbl, 2, []byte("b")); !errors.Is(err, storage.ErrAborted) {
			t.Fatalf("second SI writer: %v, want a first-committer-wins abort", err)
		}
		si3.Abort()

		st := c.Stats()
		scraped := telemetrytest.Scrape(c.Device().Telemetry())
		for _, v := range []struct {
			field  string
			got    int64
			series string
		}{
			{"Hits", st.Hits, "kaml_cache_hits_total"},
			{"Misses", st.Misses, "kaml_cache_misses_total"},
			{"Evictions", st.Evictions, "kaml_cache_evictions_total"},
			{"Commits", st.Commits, "kaml_cache_commits_total"},
			{"Aborts", st.Aborts, "kaml_cache_aborts_total"},
			{"Dies", st.Dies, "kaml_cache_dies_total"},
			{"SICommits", st.SICommits, "kaml_si_commits_total"},
			{"SIAborts", st.SIAborts, "kaml_si_aborts_total"},
			{"SIValidationFails", st.SIValidationFails, "kaml_si_validation_failures_total"},
		} {
			if s, ok := scraped[v.series]; !ok || v.got != s {
				t.Errorf("%s = %d, series %s = %d (present %v)", v.field, v.got, v.series, s, ok)
			}
			if v.got == 0 {
				t.Errorf("%s = 0: the workload should have moved it", v.field)
			}
		}
		if st.Commits != 9 || st.Aborts != 5 || st.Dies != 2 || st.SIAborts != 2 {
			t.Errorf("commits %d aborts %d dies %d SI aborts %d; want 9, 5, 2, 2",
				st.Commits, st.Aborts, st.Dies, st.SIAborts)
		}
	})
}
