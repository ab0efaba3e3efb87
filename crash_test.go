package kaml_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/telemetry/telemetrytest"
)

// The crash-consistency torture test: sweep 50 seeded fault plans, each
// cutting power at a different point of a mixed single/batch Put workload
// (some plans also inject program/read failures or leave a torn page at
// the cut). After Reopen, every committed batch must be fully readable and
// no uncommitted batch may be visible, even partially. A second
// crash+recovery round exercises blocks padded by the first recovery.

const (
	tortureKeys  = 100 // key space of the primary namespace
	tortureKeys2 = 20  // key space of the secondary namespace
)

// tortureVal builds a value unique to (seed, batch, key) with a
// deterministic body, 24..~1220 bytes.
func tortureVal(rng *rand.Rand, seed int64, batch int, key uint64) []byte {
	v := make([]byte, 24+rng.Intn(1200))
	binary.LittleEndian.PutUint64(v[0:], uint64(seed))
	binary.LittleEndian.PutUint64(v[8:], uint64(batch))
	binary.LittleEndian.PutUint64(v[16:], key)
	for i := 24; i < len(v); i++ {
		v[i] = byte(i * 7)
	}
	return v
}

// verifyTorture checks that the device serves exactly the committed state:
// every committed key returns its last committed value, every key never
// committed is absent.
func verifyTorture(dev *kaml.Device, keys uint64, ns kaml.Namespace, expected map[uint64][]byte) error {
	for key := uint64(0); key < keys; key++ {
		want, committed := expected[key]
		got, err := dev.Get(ns, key)
		if !committed {
			if !errors.Is(err, kaml.ErrKeyNotFound) {
				return fmt.Errorf("ns %d key %d was never committed, yet Get returned err=%v (%d bytes)",
					ns, key, err, len(got))
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("ns %d key %d (committed): %w", ns, key, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("ns %d key %d: wrong value after recovery (got %d bytes, want %d)",
				ns, key, len(got), len(want))
		}
	}
	return nil
}

func TestCrashRecoveryTorture(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			runTortureSeed(t, seed)
		})
	}
}

func runTortureSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	// Vary the fault plan across seeds: cut point, torn page on cut,
	// program failures, read failures, time-based instead of count-based
	// cuts. The workload programs ~60 pages, so count cuts land inside it.
	plan := &kaml.FaultPlan{Seed: seed, CutAfterPrograms: 5 + rng.Intn(60)}
	if seed%3 == 0 {
		plan.TornPageOnCut = true
	}
	if seed%5 == 0 {
		plan.ProgramFailProb = 0.03
	}
	if seed%4 == 0 {
		plan.ReadFailProb = 0.01
	}
	if seed%7 == 0 {
		plan.CutAfterPrograms = 0
		plan.CutAtTime = time.Duration(1+rng.Intn(40)) * time.Millisecond
	}
	opts := kaml.SmallOptions()
	opts.Faults = plan

	dev, err := kaml.Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	expected := make(map[kaml.Namespace]map[uint64][]byte)
	var failure error
	dev.Go(func() {
		failure = tortureRun(dev, rng, seed, expected)
	})
	dev.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
}

// tortureRun is the body of the torture test's single application actor:
// workload until the power cut, then crash, recover, verify, write more,
// crash again, recover again, verify again.
func tortureRun(dev *kaml.Device, rng *rand.Rand, seed int64, expected map[kaml.Namespace]map[uint64][]byte) error {
	ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 2 * tortureKeys})
	if err != nil {
		return err
	}
	ns2, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 2 * tortureKeys2})
	if err != nil {
		return err
	}
	expected[ns] = make(map[uint64][]byte)
	expected[ns2] = make(map[uint64][]byte)

	commit := func(batch []kaml.Record) {
		for _, r := range batch {
			expected[r.Namespace][r.Key] = r.Value
		}
	}

	// Mixed workload: single Puts, multi-record batches, and every tenth
	// batch a cross-namespace batch (the paper's multi-part atomic write
	// spanning namespaces). Only acknowledged batches enter expected.
workload:
	for batchID := 0; batchID < 400; batchID++ {
		var batch []kaml.Record
		switch {
		case batchID%10 == 9: // cross-namespace pair
			k := uint64(rng.Intn(tortureKeys2))
			batch = []kaml.Record{
				{Namespace: ns, Key: k, Value: tortureVal(rng, seed, batchID, k)},
				{Namespace: ns2, Key: k, Value: tortureVal(rng, seed, batchID, k+1)},
			}
		case rng.Intn(2) == 0: // single Put
			k := uint64(rng.Intn(tortureKeys))
			batch = []kaml.Record{{Namespace: ns, Key: k, Value: tortureVal(rng, seed, batchID, k)}}
		default: // batch of 2..5 distinct keys
			n := 2 + rng.Intn(4)
			used := make(map[uint64]bool, n)
			for len(batch) < n {
				k := uint64(rng.Intn(tortureKeys))
				if used[k] {
					continue
				}
				used[k] = true
				batch = append(batch, kaml.Record{
					Namespace: ns, Key: k, Value: tortureVal(rng, seed, batchID, k),
				})
			}
		}
		var err error
		if len(batch) == 1 {
			err = dev.Put(batch[0].Namespace, batch[0].Key, batch[0].Value)
		} else {
			err = dev.PutBatch(batch)
		}
		switch {
		case err == nil:
			commit(batch)
		case errors.Is(err, kaml.ErrPowerLoss):
			break workload // unacknowledged: must NOT be visible after recovery
		default:
			return fmt.Errorf("batch %d: %w", batchID, err)
		}
		// Interleave reads so read-fault plans exercise the retry path.
		if batchID%17 == 0 {
			k := uint64(rng.Intn(tortureKeys))
			if _, err := dev.Get(ns, k); err != nil &&
				!errors.Is(err, kaml.ErrKeyNotFound) && !errors.Is(err, kaml.ErrPowerLoss) {
				return fmt.Errorf("get during workload: %w", err)
			}
		}
	}

	// A time-triggered cut that did not fire during the workload is still
	// armed and can strike during (or right after) recovery itself. The
	// cut latches once delivered, so simply running recovery again always
	// clears it — which is exactly what real firmware does when power
	// fails mid-recovery.
	reopen := func(d *kaml.Device) (*kaml.Device, error) {
		img := d.Crash()
		var err error
		for attempt := 0; attempt < 4; attempt++ {
			var re *kaml.Device
			re, err = kaml.Reopen(img)
			if err == nil {
				return re, nil
			}
		}
		return nil, fmt.Errorf("reopen: %w", err)
	}
	verifyAll := func(d *kaml.Device) error {
		if err := verifyTorture(d, tortureKeys, ns, expected[ns]); err != nil {
			return err
		}
		return verifyTorture(d, tortureKeys2, ns2, expected[ns2])
	}
	recoverVerified := func(d *kaml.Device) (*kaml.Device, error) {
		for round := 0; ; round++ {
			re, err := reopen(d)
			if err != nil {
				return nil, err
			}
			verr := verifyAll(re)
			if verr == nil {
				return re, nil
			}
			if !errors.Is(verr, kaml.ErrPowerLoss) || round >= 2 {
				return nil, verr
			}
			d = re // cut struck between recovery and verification; again
		}
	}

	re, err := recoverVerified(dev)
	if err != nil {
		return err
	}
	if n := len(expected[ns]) + len(expected[ns2]); n > 0 {
		st := re.Stats()
		if st.RecoveredRecords+st.ReplayedValues == 0 {
			return fmt.Errorf("%d keys committed but recovery found nothing (stats %+v)", n, st)
		}
	}

	// The recovered device must be fully usable: keep writing, then crash
	// and recover a second time (exercises the blocks the first recovery
	// padded and sealed).
	for i := 0; i < 40; i++ {
		k := uint64(rng.Intn(tortureKeys))
		val := tortureVal(rng, seed, 1000+i, k)
		err := re.Put(ns, k, val)
		if errors.Is(err, kaml.ErrPowerLoss) {
			if re, err = recoverVerified(re); err != nil {
				return err
			}
			continue // unacknowledged; expected unchanged
		}
		if err != nil {
			return fmt.Errorf("put after recovery: %w", err)
		}
		expected[ns][k] = val
	}
	re2, err := recoverVerified(re)
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	re2.Close()
	return nil
}

// TestRecoveryCountersOnMetrics: a torn-page power cut, then Reopen. The
// recovery scan counts into the recovered device's registry, so the
// scraped series equal the recovered device's Stats and the torn page
// shows up in both.
func TestRecoveryCountersOnMetrics(t *testing.T) {
	opts := kaml.SmallOptions()
	opts.Faults = &kaml.FaultPlan{Seed: 1, CutAfterPrograms: 30, TornPageOnCut: true}
	dev, err := kaml.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	dev.Go(func() {
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: 1000})
		if err != nil {
			t.Error(err)
			return
		}
		for k := uint64(0); ; k++ {
			err := dev.Put(ns, k%500, bytes.Repeat([]byte{byte(k)}, 2000))
			if errors.Is(err, kaml.ErrPowerLoss) {
				break
			}
			if err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		re, err := kaml.Reopen(dev.Crash())
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer re.Close()
		st := re.Stats()
		scraped := telemetrytest.Scrape(re.Telemetry())
		for _, v := range []struct {
			field  string
			got    int64
			series string
		}{
			{"RecoveredRecords", st.RecoveredRecords, "kaml_ssd_recovered_records_total"},
			{"ReplayedValues", st.ReplayedValues, "kaml_ssd_replayed_values_total"},
			{"DroppedUncommitted", st.DroppedUncommitted, "kaml_ssd_dropped_uncommitted_total"},
			{"TornPagesSkipped", st.TornPagesSkipped, "kaml_ssd_torn_pages_skipped_total"},
			{"ReadRetries", st.ReadRetries, "kaml_ssd_read_retries_total"},
		} {
			if s, ok := scraped[v.series]; !ok || s != v.got {
				t.Errorf("%s = %d, scraped %s = %d (present %v)", v.field, v.got, v.series, s, ok)
			}
		}
		if st.TornPagesSkipped == 0 {
			t.Error("TornPagesSkipped = 0 after a torn-page power cut")
		}
	})
	dev.Wait()
}
