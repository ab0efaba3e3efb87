package experiments

import "testing"

// TestQDSweepScalesAndCoalesces is the pipeline's acceptance gate: Get
// throughput must grow (within noise) with queue depth through QD 32 and
// reach at least 3x the QD-1 rate, and the concurrent Put cells must show
// the coalescer actually merging (≥2 records per batch commit on average).
func TestQDSweepScalesAndCoalesces(t *testing.T) {
	depths := []int{1, 2, 4, 8, 16, 32}
	getOps, putOps, recsPerBatch, writeAmp := qdSweepRaw(0.2, depths)

	for i, qd := range depths {
		t.Logf("qd=%-3d get=%-6d put=%-6d recs/batch=%.2f write_amp=%.2f", qd, getOps[i], putOps[i], recsPerBatch[i], writeAmp[i])
		if getOps[i] == 0 || putOps[i] == 0 {
			t.Fatalf("qd=%d: empty cell", qd)
		}
		if writeAmp[i] < 1 {
			t.Errorf("qd=%d: write amplification %.2f < 1: flash programmed fewer bytes than the host wrote", qd, writeAmp[i])
		}
	}
	// Monotone Get scaling, with a 3% tolerance for scheduling noise.
	for i := 1; i < len(depths); i++ {
		if float64(getOps[i]) < float64(getOps[i-1])*0.97 {
			t.Errorf("Get throughput fell from qd=%d (%d ops) to qd=%d (%d ops)",
				depths[i-1], getOps[i-1], depths[i], getOps[i])
		}
	}
	last := len(depths) - 1
	if ratio := float64(getOps[last]) / float64(getOps[0]); ratio < 3 {
		t.Errorf("Get at qd=32 only %.2fx qd=1 (want >= 3x)", ratio)
	}
	if recsPerBatch[last] < 2 {
		t.Errorf("coalescer merged %.2f records/batch at qd=32 (want >= 2)", recsPerBatch[last])
	}
}
