package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/kamlssd"
	"github.com/kaml-ssd/kaml/internal/storage"
)

// workload is one input set. run builds what must exist before the main
// actor starts (on the calling goroutine; only the cluster needs that) and
// returns the body the main actor runs.
type workload struct {
	name string
	why  string
	// perSecond sizes the window per --seconds: closed-loop ops, or
	// open-loop arrivals per rung. It is about the reference host's rate,
	// so a window lasts about --seconds there, while op counts stay a pure
	// function of the arguments.
	perSecond int
	run       func(b *bench) (func() error, error)
	// ungated, when set, says why BENCHMARK.json leaves the workload out:
	// it runs and reports, but no change is gated on it.
	ungated string
}

var workloads = []workload{
	{name: "put-churn", perSecond: 25000, run: putChurn,
		why: "write path only: coalescer, NVRAM, record packing, flash program, GC and chain pruning; no Get runs"},
	{name: "get-zipf", perSecond: 110000, run: getZipf,
		why: "read path only on a flushed namespace: RunDirect, seqlock index, flash read, nvme; no write, GC or cache"},
	{name: "txn-open", perSecond: 3000, run: txnOpen,
		why:     "cache, lock manager and SI reads under open-loop txns whose reads and writes hit the same rows",
		ungated: "fails its txn-open.read check: an SI read of a preloaded row returns key-not-found"},
	{name: "cluster-open", perSecond: 8000, run: clusterOpen,
		why:     "cluster routing, replication fan-out and hedged reads under open-loop Gets and Puts",
		ungated: "its virt_p50_us is the unloaded Get path time, the same in every run"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// openDevice opens a device of opts on the bench engine.
func openDevice(b *bench, opts kaml.Options) (*kaml.Device, error) {
	opts.Engine = b.eng
	return kaml.Open(opts)
}

// preload writes version 1 of keys [0, n) in key order, 16 records per
// batch, sizes drawn by size. The order fixes where each key lands on
// flash, which (like the hot set) is part of the workload, not the seed.
func preload(dev *kaml.Device, ns kaml.Namespace, seed int64, n int, size func(key int) int) error {
	for base := 0; base < n; base += 16 {
		var recs []kaml.Record
		for k := base; k < min(base+16, n); k++ {
			recs = append(recs, kaml.Record{Namespace: ns, Key: uint64(k),
				Value: fillValue(make([]byte, size(k)), seed, uint64(k), 1)})
		}
		if err := dev.PutBatch(recs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// crashReopen power-cuts dev, runs recovery, and records the virtual time
// from Crash to Reopen returning.
func crashReopen(b *bench, dev *kaml.Device) (*kaml.Device, error) {
	t0 := b.eng.Now()
	id := b.spans.begin("Crash", 0, -1)
	img := dev.Crash()
	b.spans.end(id)
	id = b.spans.begin("Reopen", 0, -1)
	dev2, err := kaml.Reopen(img)
	b.spans.end(id)
	b.out.recover = b.eng.Now() - t0
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	return dev2, nil
}

// deviceCounters reads the counters of one device.
func deviceCounters(dev *kaml.Device) func() counters {
	return func() counters { return readCounters([]*kaml.Device{dev}, nil, nil) }
}

// windowWriteAmp sets write_amp from the window's counter delta.
func windowWriteAmp(b *bench) {
	host := b.c1.st.BytesWritten - b.c0.st.BytesWritten
	fl := b.c1.st.FlashBytesWritten - b.c0.st.FlashBytesWritten
	if host > 0 {
		b.out.writeAmp = float64(fl) / float64(host)
	}
}

// closedOutcome fills the outcome of a closed-loop window. A closed loop
// has no offered rate, so slo_kops is its throughput when its p99 meets
// limit, else 0.
func closedOutcome(b *bench, lat []time.Duration, limit time.Duration) {
	o := &b.out
	o.lat, o.phaseOps, o.phase, o.sloLimit = lat, int64(len(lat)), b.virtClose-b.virtOpen, limit
	if quantiles(lat).Quantile(0.99) <= limit {
		o.sloKops = float64(o.phaseOps) / o.phase.Seconds() / 1e3
	}
}

// openOutcome fills the outcome of an open-loop window: latencies at the
// middle (nominal) rung, and slo_kops from the highest sustained rung.
func openOutcome(b *bench, rungs []*rung, limit time.Duration) {
	o := &b.out
	o.rungs, o.sloLimit = rungs, limit
	mid := rungs[len(rungs)/2]
	o.lat, o.phaseOps = mid.lat, int64(len(mid.lat))
	o.phase = time.Duration(mid.lastDone.Load()) - mid.start
	for _, r := range rungs {
		if r.sustained(limit) {
			o.sloKops = r.kops()
		}
	}
}

// put-churn: 32 closed-loop clients, 75% Put and 25% 4-record PutBatch,
// values uniform over 512 B..4 KiB. 4096 keys of 1.9 KiB mean hold about a
// quarter of the 32 MiB device, clear of the device-full region. Each
// client owns the keys congruent to its index, so the last acknowledged
// value of every key is known exactly.
const (
	churnClients = 32
	churnKeys    = 4096
	churnBatch   = 4
	churnLimit   = 250 * time.Millisecond // p99 limit for slo_kops (GC stalls reach tens of ms)
	warmRoundOps = 64                     // ops per client per warm-up round
	maxWarmOps   = 400000
)

var churnSizes = []int{512, 1024, 2048, 4096}

func putChurn(b *bench) (func() error, error) {
	return func() error {
		dev, err := openDevice(b, kaml.SmallOptions())
		if err != nil {
			return err
		}
		live := dev
		b.closeAtExit(&live)
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: churnKeys})
		if err != nil {
			return err
		}
		ver := make([]uint64, churnKeys)
		size := make([]int, churnKeys)
		sizes := rand.New(rand.NewSource(b.seed))
		if err := preload(dev, ns, b.seed, churnKeys, func(k int) int {
			ver[k], size[k] = 1, churnSizes[sizes.Intn(len(churnSizes))]
			return size[k]
		}); err != nil {
			return err
		}
		perClient := churnKeys / churnClients
		op := func(c int, rng *rand.Rand) error {
			n := 1
			if rng.Intn(4) == 0 {
				n = churnBatch
			}
			j := rng.Intn(perClient)
			recs := make([]kaml.Record, n)
			for i := range recs {
				k := uint64(c + churnClients*((j+i*perClient/churnBatch)%perClient))
				sz := churnSizes[rng.Intn(len(churnSizes))]
				recs[i] = kaml.Record{Namespace: ns, Key: k, Value: fillValue(make([]byte, sz), b.seed, k, ver[k]+1)}
			}
			var err error
			if n == 1 {
				id := b.spans.begin("Put", int64(recs[0].Key), -1)
				err = dev.Put(ns, recs[0].Key, recs[0].Value)
				b.spans.end(id)
			} else {
				id := b.spans.begin("PutBatch", int64(recs[0].Key), -1)
				err = dev.PutBatch(recs)
				b.spans.end(id)
			}
			if err != nil {
				return fmt.Errorf("put: %w", err)
			}
			for _, r := range recs {
				ver[r.Key]++
				size[r.Key] = len(r.Value)
			}
			return nil
		}
		// Warm up until GC has erased every block at least once, so
		// write_amp has levelled off before the window.
		rngs := clientRNGs(b.seed, churnClients)
		for warm := 0; !everyBlockErased(dev); warm += warmRoundOps * churnClients {
			if warm >= maxWarmOps {
				return fmt.Errorf("warm-up: some block still unerased after %d ops", warm)
			}
			if _, err := b.closedLoop(rngs, warmRoundOps, false, op); err != nil {
				return err
			}
		}
		b.sample = deviceCounters(dev)
		perWindow := b.scale / churnClients
		if !b.openWindow(perWindow * churnClients) {
			return nil
		}
		lat, err := b.closedLoop(rngs, perWindow, true, op)
		if err != nil {
			return err
		}
		b.closeWindow()
		closedOutcome(b, lat, churnLimit)
		windowWriteAmp(b)

		readBack := func(name string, d *kaml.Device) error {
			scratch := make([]byte, 4096)
			for k := 0; k < churnKeys; k++ {
				v, err := d.Get(ns, uint64(k))
				if err != nil {
					return checkFail(name, "key %d: %v", k, err)
				}
				if !valueOK(v, b.seed, uint64(k), ver[k], size[k], scratch) {
					got, _ := valueVersion(v, uint64(k))
					return checkFail(name, "key %d: want version %d (%d B), got version %d (%d B)", k, ver[k], size[k], got, len(v))
				}
			}
			return nil
		}
		if err := readBack("put-churn.readback", dev); err != nil {
			return err
		}
		if live, err = crashReopen(b, dev); err != nil {
			return err
		}
		return readBack("put-churn.readback-after-reopen", live)
	}, nil
}

// everyBlockErased reports whether every log's least-erased block has been
// erased at least once, from the firmware's per-log wear gauges.
func everyBlockErased(dev *kaml.Device) bool {
	seen := false
	for _, m := range dev.Telemetry().Snapshot().Metrics {
		if m.Name == "kaml_wear_erase_min" {
			seen = true
			if m.Value < 1 {
				return false
			}
		}
	}
	return seen
}

// get-zipf: 16 closed-loop clients doing Get, zipf 0.99 over 16384 keys of
// 1 KiB, preloaded and flushed so NVRAM is drained. Every returned value is
// compared with the bytes the generator wrote. The device has twice the
// blocks of SmallOptions (64 MiB), so the 19 MiB preload stays clear of the
// device-full region, where a 32 MiB device stops making progress.
const (
	zipfClients = 16
	zipfKeys    = 16384
	zipfValue   = 1024
	zipfTheta   = 0.99
	zipfLimit   = 5 * time.Millisecond
	zipfWarm    = 256 // warm-up Gets per client
)

func getZipf(b *bench) (func() error, error) {
	opts := kaml.SmallOptions()
	opts.Flash.BlocksPerChip *= 2
	opts.Firmware = kamlssd.DefaultConfig(opts.Flash)
	opts.Firmware.NumLogs = kaml.SmallOptions().Firmware.NumLogs
	dist := newKeyDist(zipfKeys, zipfTheta)
	return func() error {
		dev, err := openDevice(b, opts)
		if err != nil {
			return err
		}
		live := dev
		b.closeAtExit(&live)
		ns, err := dev.CreateNamespace(kaml.NamespaceOptions{ExpectedKeys: zipfKeys})
		if err != nil {
			return err
		}
		if err := preload(dev, ns, b.seed, zipfKeys, func(int) int { return zipfValue }); err != nil {
			return err
		}
		dev.Flush()
		scratch := make([][]byte, zipfClients)
		for i := range scratch {
			scratch[i] = make([]byte, zipfValue)
		}
		op := func(c int, rng *rand.Rand) error {
			k := dist.draw(rng)
			id := b.spans.begin("Get", int64(k), -1)
			v, err := dev.Get(ns, k)
			b.spans.end(id)
			if err != nil {
				return fmt.Errorf("get %d: %w", k, err)
			}
			if !valueOK(v, b.seed, k, 1+b.skew, zipfValue, scratch[c]) {
				return checkFail("get-zipf.value", "key %d: returned bytes differ from the preloaded value", k)
			}
			return nil
		}
		rngs := clientRNGs(b.seed, zipfClients)
		if _, err := b.closedLoop(rngs, zipfWarm, false, op); err != nil {
			return err
		}
		b.sample = deviceCounters(dev)
		perWindow := b.scale / zipfClients
		if !b.openWindow(perWindow * zipfClients) {
			return nil
		}
		lat, err := b.closedLoop(rngs, perWindow, true, op)
		if err != nil {
			return err
		}
		b.closeWindow()
		closedOutcome(b, lat, zipfLimit)
		// The window writes nothing, so write_amp is that of the preload
		// the reads are served from.
		st := b.c1.st
		b.out.writeAmp = float64(st.FlashBytesWritten) / float64(st.BytesWritten)
		b.out.writeNote = "get-zipf writes nothing in its window; this is the preload's"
		if d := b.c1.st.GCErases - b.c0.st.GCErases; d != 0 {
			return checkFail("get-zipf.no-gc", "%d GC erases in a read-only window", d)
		}
		if live, err = crashReopen(b, dev); err != nil {
			return err
		}
		for k := uint64(0); k < zipfKeys; k++ {
			v, err := live.Get(ns, k)
			if err != nil || !valueOK(v, b.seed, k, 1, zipfValue, scratch[0]) {
				return checkFail("get-zipf.readback-after-reopen", "key %d: err %v", k, err)
			}
		}
		return nil
	}, nil
}

// txn-open: open-loop Poisson transactions through the cache at three
// rates, 30% SI read-only over 4 rows, 50% SS2PL single-row reads, 20%
// SS2PL read-modify-writes that increment the row's counter. Zipf 1.1 over
// 16384 rows of 512 B (8 MiB) with a 2 MiB cache. An aborted transaction
// is retried up to 5 times with its wait-die priority, then counted as
// failed. The counter is the value's version field, so a row's value is
// fully determined by (key, counter) and every read is checked.
//
// The cache is internal/cache, the code kaml.Cache forwards to, because
// only it exposes cache.Stats and BeginRetry.
const (
	txnRows    = 16384
	txnRowSize = 512
	txnCache   = 2 << 20
	txnTheta   = 1.1
	txnRetries = 5
	txnLimit   = 5 * time.Millisecond
)

var txnRates = []float64{5000, 10000, 20000}

func txnOpen(b *bench) (func() error, error) {
	dist := newKeyDist(txnRows, txnTheta)
	return func() error {
		dev, err := openDevice(b, kaml.SmallOptions())
		if err != nil {
			return err
		}
		live := dev
		b.closeAtExit(&live)
		cs := cache.New(dev.Raw(), cache.Config{CapacityBytes: txnCache})
		tbl, err := cs.CreateTable("rows", storage.TableHint{ExpectedRows: txnRows})
		if err != nil {
			return err
		}
		if err := preload(dev, tbl, b.seed, txnRows, func(int) int { return txnRowSize }); err != nil {
			return err
		}
		// Counters start at version 1 (the preload), so committed RMWs
		// are sum(version-1).
		dev.Flush()
		var reqs int64
		read := func(tx storage.Tx, req int64, parent int, k uint64) (uint64, error) {
			id := b.spans.begin("txn.Read", req, parent)
			v, err := tx.Read(tbl, k)
			b.spans.end(id)
			if errors.Is(err, storage.ErrNotFound) {
				return 0, checkFail("txn-open.read", "row %d exists since the preload, but a transactional Read returned %v", k, err)
			}
			if err != nil {
				return 0, err
			}
			ver, ok := valueVersion(v, k)
			if !ok || !valueOK(v, b.seed, k, ver, txnRowSize, make([]byte, txnRowSize)) {
				return 0, checkFail("txn-open.row", "row %d: read bytes do not match any value written to it", k)
			}
			return ver, nil
		}
		gen := func(rng *rand.Rand) func() (bool, error) {
			reqs++
			req := reqs
			kind := rng.Float64()
			keys := []uint64{dist.draw(rng)}
			if kind < 0.3 {
				keys = append(keys, dist.draw(rng), dist.draw(rng), dist.draw(rng))
			}
			si, rmw := kind < 0.3, kind >= 0.8
			return func() (bool, error) {
				root := b.spans.begin("txn", req, -1)
				defer b.spans.end(root)
				var prev storage.Tx
				for attempt := 0; attempt <= txnRetries; attempt++ {
					id := b.spans.begin("txn.Begin", req, root)
					var tx storage.Tx
					switch {
					case si && prev == nil:
						tx = cs.BeginSI()
					case si:
						tx = cs.BeginSIRetry(prev)
					case prev == nil:
						tx = cs.Begin()
					default:
						tx = cs.BeginRetry(prev)
					}
					b.spans.end(id)
					err := func() error {
						for _, k := range keys {
							ver, err := read(tx, req, root, k)
							if err != nil {
								return err
							}
							if rmw {
								id := b.spans.begin("txn.Update", req, root)
								err = tx.Update(tbl, k, fillValue(make([]byte, txnRowSize), b.seed, k, ver+1))
								b.spans.end(id)
								if err != nil {
									return err
								}
							}
						}
						id := b.spans.begin("txn.Commit", req, root)
						defer b.spans.end(id)
						return tx.Commit()
					}()
					b.mu.Lock()
					b.out.txn.attempts++
					if si {
						b.out.txn.siAttempts++
					}
					switch {
					case err == nil && rmw:
						b.out.txn.rmwCommits++
					case err != nil:
						b.out.txn.aborts++
					}
					b.mu.Unlock()
					if err == nil {
						tx.Free()
						return true, nil
					}
					tx.Abort()
					tx.Free()
					if !errors.Is(err, storage.ErrAborted) {
						return false, err
					}
					prev = tx
				}
				return false, nil
			}
		}
		b.sample = func() counters { return readCounters([]*kaml.Device{dev}, nil, cs) }
		if !b.openWindow(b.scale * len(txnRates)) {
			return nil
		}
		rungs, err := b.openLoop(txnRates, b.scale, gen)
		if err != nil {
			return err
		}
		b.closeWindow()
		openOutcome(b, rungs, txnLimit)
		windowWriteAmp(b)

		lostUpdate := func(name string, d *kaml.Device) error {
			var sum uint64
			scratch := make([]byte, txnRowSize)
			for k := uint64(0); k < txnRows; k++ {
				v, err := d.Get(tbl, k)
				if err != nil {
					return checkFail(name, "row %d: %v", k, err)
				}
				ver, ok := valueVersion(v, k)
				if !ok || !valueOK(v, b.seed, k, ver, txnRowSize, scratch) {
					return checkFail(name, "row %d: bytes do not match its counter", k)
				}
				sum += ver - 1
			}
			if sum != uint64(b.out.txn.rmwCommits) {
				return checkFail(name, "row counters sum to %d, committed read-modify-writes %d", sum, b.out.txn.rmwCommits)
			}
			return nil
		}
		if err := lostUpdate("txn-open.lost-update", dev); err != nil {
			return err
		}
		if live, err = crashReopen(b, dev); err != nil {
			return err
		}
		return lostUpdate("txn-open.lost-update-after-reopen", live)
	}, nil
}

// cluster-open: open-loop Gets and Puts (90/10) on a 4-node, 8-shard, RF-2
// cluster with hedged reads, zipf 0.99 over 8192 keys of 256 B. A Put's
// value names its write sequence number, so the final value of a key can be
// checked against every acknowledged Put: it must come from one that no
// other Put to the key began after.
const (
	clNodes  = 4
	clShards = 8
	clRF     = 2
	clKeys   = 8192
	clValue  = 256
	clTheta  = 0.99
	clLimit  = time.Millisecond
)

var clRates = []float64{20000, 40000, 80000}

func clusterOpen(b *bench) (func() error, error) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.Shards, cfg.ReplicationFactor = clNodes, clShards, clRF
	cfg.Hedge.Enabled = true
	cfg.Seed = hotSetSeed // placement is part of the workload, like the hot set
	cfg.ExpectedKeysPerShard = 2 * clKeys / clShards
	cfg.Engine = b.eng
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	b.atExit = append(b.atExit, c.Close)
	dist := newKeyDist(clKeys, clTheta)
	return func() error {
		// cluster.New must run off the simulation, so the idle cluster's
		// clock ran for a host-timing-dependent while before this actor
		// started. Start the workload at the next whole 10 ms of virtual
		// time: every device timer period divides it, so the cluster's
		// state there, and the schedule from there, depend on the seed
		// alone.
		const align = 10 * time.Millisecond
		b.eng.Sleep(align - b.eng.Now()%align + align)
		for k := uint64(0); k < clKeys; k++ {
			if err := c.Put(k, fillValue(make([]byte, clValue), b.seed, k, 1)); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
		// Put w writes version w: putEnd[w] is its acknowledgement time (0
		// until acknowledged), maxStart[k] the latest start of any Put to
		// key k. Version 1 is the preload, acknowledged at 1 ns.
		putEnd := []time.Duration{0, 1}
		maxStart := make([]time.Duration, clKeys)
		scratch := make([]byte, clValue)
		nextVer := uint64(2)
		devs := make([]*kaml.Device, clNodes)
		for i := range devs {
			devs[i] = c.Node(i).Dev
		}
		gen := func(rng *rand.Rand) func() (bool, error) {
			k := dist.draw(rng)
			if rng.Float64() < 0.9 {
				return func() (bool, error) {
					id := b.spans.begin("cluster.Get", int64(k), -1)
					v, err := c.Get(k)
					b.spans.end(id)
					if err != nil {
						return false, fmt.Errorf("get %d: %w", k, err)
					}
					ver, ok := valueVersion(v, k)
					if !ok || ver >= uint64(len(putEnd)) || !valueOK(v, b.seed, k, ver, clValue, make([]byte, clValue)) {
						return false, checkFail("cluster-open.get", "key %d: returned bytes are not a value written to it", k)
					}
					return true, nil
				}
			}
			ver := nextVer
			nextVer++
			putEnd = append(putEnd, 0)
			return func() (bool, error) {
				if now := b.eng.Now(); now > maxStart[k] {
					maxStart[k] = now
				}
				id := b.spans.begin("cluster.Put", int64(k), -1)
				err := c.Put(k, fillValue(make([]byte, clValue), b.seed, k, ver))
				b.spans.end(id)
				if err != nil {
					return false, fmt.Errorf("put %d: %w", k, err)
				}
				putEnd[ver] = b.eng.Now()
				return true, nil
			}
		}
		b.sample = func() counters { return readCounters(devs, c.Telemetry(), nil) }
		if !b.openWindow(b.scale * len(clRates)) {
			return nil
		}
		rungs, err := b.openLoop(clRates, b.scale, gen)
		if err != nil {
			return err
		}
		b.closeWindow()
		openOutcome(b, rungs, clLimit)
		windowWriteAmp(b)

		readBack := func(name string) error {
			for k := uint64(0); k < clKeys; k++ {
				v, err := c.Get(k)
				if err != nil {
					return checkFail(name, "key %d: %v", k, err)
				}
				ver, ok := valueVersion(v, k)
				if !ok || ver >= uint64(len(putEnd)) || !valueOK(v, b.seed, k, ver, clValue, scratch) {
					return checkFail(name, "key %d: value is not one written to it", k)
				}
				if putEnd[ver] == 0 || putEnd[ver] < maxStart[k] {
					return checkFail(name, "key %d: read version %d, but a later Put to the key was acknowledged", k, ver)
				}
			}
			return nil
		}
		if err := readBack("cluster-open.readback"); err != nil {
			return err
		}
		// Fail node 0 out of the cluster: every shard keeps a replica, so
		// every key must still read back; then time node 0's recovery.
		c.KillNode(0)
		if err := readBack("cluster-open.readback-after-failover"); err != nil {
			return err
		}
		var reopened *kaml.Device
		b.closeAtExit(&reopened)
		reopened, err = crashReopen(b, c.Node(0).Dev)
		return err
	}, nil
}
