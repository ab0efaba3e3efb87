package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cache"
	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
	"github.com/kaml-ssd/kaml/internal/lockmgr"
	"github.com/kaml-ssd/kaml/internal/nvme"
	"github.com/kaml-ssd/kaml/internal/record"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// counters is one reading of every layer counter the benchmark uses,
// summed over the workload's devices. Per-layer figures are the difference
// of two readings, at window open and close.
type counters struct {
	st    kaml.Stats
	ctr   map[string]int64
	hist  map[string]telemetry.HistSnapshot
	cache cache.Stats
}

// devHists are the histograms read from every device registry, under the
// key the per-layer metrics use.
var devHists = []struct {
	key, name string
	unit      telemetry.Unit
}{
	{"gc_pause", "kaml_gc_pause_seconds", telemetry.UnitSeconds},
	{"install", "kaml_ssd_flash_install_seconds", telemetry.UnitSeconds},
	{"chain_len", "kaml_mvcc_chain_length", telemetry.UnitNone},
}

var cmdqStages = []string{"queue", "coalesce", "exec", "total"}

// readCounters reads the devices' Stats and telemetry, the cluster
// registry (nil outside the cluster workload) and the cache (nil outside
// the transaction workload). Registries are read through Snapshot and
// lookups of instruments the layers register eagerly, so reading adds
// nothing to them.
func readCounters(devs []*kaml.Device, clusterReg *telemetry.Registry, cs *cache.Cache) counters {
	c := counters{ctr: map[string]int64{}, hist: map[string]telemetry.HistSnapshot{}}
	merge := func(key string, h telemetry.HistSnapshot) {
		acc, ok := c.hist[key]
		if !ok {
			c.hist[key] = h
			return
		}
		acc.Merge(&h)
		c.hist[key] = acc
	}
	sumCounters := func(r *telemetry.Registry) {
		for _, m := range r.Snapshot().Metrics {
			if m.Kind == "counter" {
				c.ctr[m.Name] += m.Value
			}
		}
	}
	for _, d := range devs {
		s := d.Stats()
		c.st.Gets += s.Gets
		c.st.Puts += s.Puts
		c.st.PutRecords += s.PutRecords
		c.st.NVRAMHits += s.NVRAMHits
		c.st.Programs += s.Programs
		c.st.GCCopies += s.GCCopies
		c.st.GCErases += s.GCErases
		c.st.IndexProbes += s.IndexProbes
		c.st.IndexReadRetries += s.IndexReadRetries
		c.st.BytesWritten += s.BytesWritten
		c.st.FlashBytesWritten += s.FlashBytesWritten
		c.st.VersionsPruned += s.VersionsPruned
		c.st.CoalescedPuts += s.CoalescedPuts
		c.st.CoalescerBatches += s.CoalescerBatches
		c.st.CoalescerRecords += s.CoalescerRecords
		r := d.Telemetry()
		if r == nil {
			continue
		}
		sumCounters(r)
		for _, h := range devHists {
			merge(h.key, r.Histogram(h.name, h.unit).Snapshot())
		}
		for _, op := range []string{"Get", "Put", "PutBatch"} {
			for _, st := range cmdqStages {
				merge("cmdq_"+st, r.Histogram("kaml_cmdq_stage_seconds", telemetry.UnitSeconds, "op", op, "stage", st).Snapshot())
			}
		}
	}
	if clusterReg != nil {
		sumCounters(clusterReg)
		merge("cluster_get", clusterReg.Histogram("kaml_cluster_get_seconds", telemetry.UnitSeconds, "shard", "all").Snapshot())
		merge("cluster_put", clusterReg.Histogram("kaml_cluster_put_seconds", telemetry.UnitSeconds, "shard", "all").Snapshot())
	}
	if cs != nil {
		c.cache = cs.Stats()
	}
	return c
}

// histDelta is the window's share of a cumulative histogram. Its max is the
// closing reading's max, an upper bound for the window.
func histDelta(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	d := b
	for i := range d.Buckets {
		d.Buckets[i] -= a.Buckets[i]
	}
	d.N -= a.N
	d.Sum -= a.Sum
	return d
}

// layerSet collects per-layer values and, for each one the run cannot
// give, the reason.
type layerSet struct {
	vals    map[string]float64
	omitted map[string]string
}

func newLayerSet() *layerSet {
	return &layerSet{vals: map[string]float64{}, omitted: map[string]string{}}
}

func (l *layerSet) set(name string, v float64) { l.vals[name] = v }

// omit records why name has no value, unless it has one or a reason
// already.
func (l *layerSet) omit(name, why string) {
	_, set := l.vals[name]
	_, omitted := l.omitted[name]
	if !set && !omitted {
		l.omitted[name] = why
	}
}

// ratio sets name to num/den*scale, or omits it when den is zero.
func (l *layerSet) ratio(name string, num, den, scale float64, what string) {
	if den == 0 {
		l.omit(name, "no "+what+" in the window (denominator 0)")
		return
	}
	l.set(name, num/den*scale)
}

// quantile sets name to the q-quantile of h in microseconds (or raw units
// for a unitless histogram), or omits it when h is empty.
func (l *layerSet) quantile(name string, h telemetry.HistSnapshot, q float64, us bool, what string) {
	if h.N == 0 {
		l.omit(name, "no "+what+" in the window")
		return
	}
	v := float64(h.Quantile(q))
	if us {
		v /= 1e3
	}
	l.set(name, v)
}

// counterMetrics derives the C-source per-layer metrics from the window's
// counter delta. ops is the benchmark's own count of ops completed in the
// window; every per-op figure divides by it.
func counterMetrics(l *layerSet, b *bench, ops float64) {
	a, z := b.c0, b.c1
	d := func(f func(kaml.Stats) int64) float64 { return float64(f(z.st) - f(a.st)) }
	ctr := func(name string) float64 { return float64(z.ctr[name] - a.ctr[name]) }
	h := func(key string) telemetry.HistSnapshot { return histDelta(a.hist[key], z.hist[key]) }

	if z.hist["cmdq_total"].N > 0 { // a device is on this workload's path
		flashReads := d(func(s kaml.Stats) int64 { return s.Gets - s.NVRAMHits })
		l.ratio("flash.programs_per_kop", d(func(s kaml.Stats) int64 { return s.Programs }), ops, 1e3, "ops")
		l.ratio("flash.reads_per_kop", flashReads, ops, 1e3, "ops")
		l.ratio("flash.erases_per_kop", d(func(s kaml.Stats) int64 { return s.GCErases }), ops, 1e3, "ops")
		l.ratio("hashindex.probes_per_op", d(func(s kaml.Stats) int64 { return s.IndexProbes }), ops, 1, "ops")
		l.ratio("hashindex.read_retries_per_kop", d(func(s kaml.Stats) int64 { return s.IndexReadRetries }), ops, 1e3, "ops")
		l.quantile("hashindex.chain_len_p99", h("chain_len"), 0.99, false, "version-chain pruning pass")
		l.ratio("hashindex.pruned_per_kop", d(func(s kaml.Stats) int64 { return s.VersionsPruned }), ops, 1e3, "ops")
		l.ratio("kamlssd.nvram_hit_ratio", d(func(s kaml.Stats) int64 { return s.NVRAMHits }), d(func(s kaml.Stats) int64 { return s.Gets }), 1, "device Gets")
		l.ratio("kamlssd.gc_copies_per_kop", d(func(s kaml.Stats) int64 { return s.GCCopies }), ops, 1e3, "ops")
		l.ratio("kamlssd.gc_erases_per_kop", d(func(s kaml.Stats) int64 { return s.GCErases }), ops, 1e3, "ops")
		l.quantile("kamlssd.gc_pause_p99_us", h("gc_pause"), 0.99, true, "GC victim collection")
		l.quantile("kamlssd.install_p99_us", h("install"), 0.99, true, "NVRAM-to-flash install")
		l.ratio("cmdq.recs_per_batch", d(func(s kaml.Stats) int64 { return s.CoalescerRecords }), d(func(s kaml.Stats) int64 { return s.CoalescerBatches }), 1, "coalescer batch commits")
		l.ratio("cmdq.coalesced_frac", d(func(s kaml.Stats) int64 { return s.CoalescedPuts }), d(func(s kaml.Stats) int64 { return s.Puts }), 1, "device write commands")
		l.ratio("cmdq.backpressure_per_kop", ctr("kaml_cmdq_backpressure_waits_total"), ops, 1e3, "ops")
		l.quantile("cmdq.queue_p99_us", h("cmdq_queue"), 0.99, true, "pipeline commands")
		l.quantile("cmdq.coalesce_p99_us", h("cmdq_coalesce"), 0.99, true, "coalesced writes")
		l.quantile("cmdq.exec_p99_us", h("cmdq_exec"), 0.99, true, "pipeline commands")
		// Little's law: summed command residence over the window's virtual
		// length is the time-averaged pipeline occupancy.
		l.ratio("cmdq.mean_occupancy", float64(h("cmdq_total").Sum), float64(b.virtClose-b.virtOpen), 1, "virtual time")
	}
	if t := b.out.txn; t.attempts > 0 {
		hits := float64(z.cache.Hits - a.cache.Hits)
		l.ratio("cache.hit_ratio", hits, hits+float64(z.cache.Misses-a.cache.Misses), 1, "cache lookups")
		l.ratio("cache.evictions_per_kop", float64(z.cache.Evictions-a.cache.Evictions), ops, 1e3, "txns")
		l.ratio("lockmgr.acquires_per_txn", ctr("kaml_lockmgr_acquires_total"), ops, 1, "txns")
		l.ratio("lockmgr.waits_per_ktxn", ctr("kaml_lockmgr_waits_total"), ops, 1e3, "txns")
		l.ratio("lockmgr.dies_per_ktxn", ctr("kaml_lockmgr_dies_total"), ops, 1e3, "txns")
		l.ratio("lockmgr.abort_ratio", float64(t.aborts), float64(t.attempts), 1, "txn attempts")
		l.ratio("lockmgr.si_validation_fail_ratio", ctr("kaml_si_validation_failures_total"), float64(t.siAttempts), 1, "SI txn attempts")
	}
	if _, ok := z.hist["cluster_get"]; ok {
		issued := ctr("kaml_cluster_hedged_reads_issued_total")
		l.ratio("cluster.hedges_per_kop", issued, ops, 1e3, "ops")
		l.ratio("cluster.hedge_win_ratio", ctr("kaml_cluster_hedged_reads_won_total"), issued, 1, "hedged reads")
		l.ratio("cluster.retries_per_kop", ctr("kaml_cluster_retries_total"), ops, 1e3, "ops")
		l.quantile("cluster.get_p99_us", h("cluster_get"), 0.99, true, "cluster Gets")
		l.quantile("cluster.put_p99_us", h("cluster_put"), 0.99, true, "cluster Puts")
	}
}

// span is one call the benchmark made into a layer, on both clocks.
type span struct {
	name         string
	req          int64 // request id: spans of one op share it
	parent       int   // index of the causing span, -1 for a root
	wall0, wall1 time.Duration
	virt0, virt1 time.Duration
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced run pays for no tracing.
type spanLog struct {
	mu    sync.Mutex
	eng   *sim.Engine
	base  time.Time
	spans []span
}

func (l *spanLog) begin(name string, req int64, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, req: req, parent: parent,
		wall0: time.Since(l.base), virt0: l.eng.Now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id]
	s.wall1, s.virt1 = time.Since(l.base), l.eng.Now()
}

// write saves the spans as tab-separated lines, one per span.
func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	buf.WriteString("id\tname\treq\tparent\twall_start_ns\twall_end_ns\tvirt_start_ns\tvirt_end_ns\n")
	for i, s := range l.spans {
		fmt.Fprintf(&buf, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", i, s.name, s.req, s.parent,
			s.wall0, s.wall1, s.virt0, s.virt1)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// spanMetrics derives the S-source per-layer metrics.
func spanMetrics(l *layerSet, spans []span) {
	var readWall []float64
	var commitVirt []time.Duration
	for _, s := range spans {
		switch s.name {
		case "txn.Read":
			readWall = append(readWall, float64(s.wall1-s.wall0))
		case "txn.Commit":
			commitVirt = append(commitVirt, s.virt1-s.virt0)
		case "Reopen":
			l.set("kamlssd.recover_wall_ms", float64(s.wall1-s.wall0)/1e6)
		}
	}
	if len(readWall) > 0 {
		sum := 0.0
		for _, v := range readWall {
			sum += v
		}
		l.set("cache.read_wall_ns", sum/float64(len(readWall)))
	}
	if len(commitVirt) > 0 {
		l.set("cache.commit_virt_p99_us", float64(quantiles(commitVirt).Quantile(0.99))/1e3)
	}
}

// profileHz is the traced run's CPU sampling rate: five times the runtime
// default, so a 10 s window yields several thousand samples.
const profileHz = 500

// minProfileSamples is the fewest samples a cpu_share is reported from.
const minProfileSamples = 1000

// cpuLayers are the layers a cpu_share is reported for; "gen" is the
// benchmark's own code (generator, checks, tracing).
var cpuLayers = []string{"sim", "flash", "nvme", "record", "hashindex", "kamlssd",
	"cmdq", "cache", "lockmgr", "cluster", "telemetry", "gen"}

// layerOfFunc maps a profiled function to its repository layer: the last
// element of its package path, "gen" for this benchmark (package main), and
// "" outside the repository.
func layerOfFunc(fn string) string {
	const mod = "github.com/kaml-ssd/kaml"
	if strings.HasPrefix(fn, "main.") {
		return "gen"
	}
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	rest := fn[len(mod):]
	if strings.HasPrefix(rest, ".") {
		return "kaml"
	}
	// Receivers and type arguments can hold other import paths.
	if i := strings.IndexAny(rest, "(["); i >= 0 {
		rest = rest[:i]
	}
	slash := strings.LastIndex(rest, "/")
	pkg := rest
	if dot := strings.Index(rest[slash+1:], "."); dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	return pkg[strings.LastIndex(pkg, "/")+1:]
}

// profileShares reads a CPU profile with `go tool pprof -traces` and
// charges each sample to the innermost repository frame of its stack, so
// runtime work such as mallocgc lands on the layer that caused it. Samples
// with no repository frame (GC workers, the scheduler) stay uncharged.
func profileShares(path string) (shares map[string]float64, samples int64, err error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces parses `go tool pprof -traces` output: header lines, then
// traces between separator lines, each a sample value and its leaf frame on
// the first line and one caller per line after it.
func parseTraces(out []byte) (map[string]float64, int64, error) {
	byLayer := map[string]time.Duration{}
	var total, cur time.Duration
	charged := true
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			cur, charged = 0, true
		case !strings.HasPrefix(line, " ") || len(fields) == 0:
			// header
		default:
			frame := fields[0]
			if v, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
				cur, charged, frame = v, false, fields[1]
				total += v
			}
			if layer := layerOfFunc(frame); !charged && layer != "" {
				byLayer[layer] += cur
				charged = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for k, v := range byLayer {
		shares[k] = float64(v) / float64(total)
	}
	return shares, int64(total / (time.Second / profileHz)), nil
}

// probeLoop times n calls of fn on the calling actor: wall ns and heap
// allocations per call.
func probeLoop(n int, fn func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return float64(el.Nanoseconds()) / float64(n), float64(ms.Mallocs-m0) / float64(n)
}

// runProbes measures single layers through their exported functions, each
// inside an actor of a fresh engine serialized with seed, with inputs drawn
// from seed. Each probe is one span.
func runProbes(seed int64, spans *spanLog) (map[string]float64, error) {
	eng := sim.NewEngine()
	eng.Serialize(seed)
	spans.eng = eng
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := map[string]float64{}
	var perr error
	probe := func(name string, fn func() error) {
		if perr != nil {
			return
		}
		id := spans.begin("probe."+name, 0, -1)
		err := fn()
		spans.end(id)
		if err != nil {
			perr = fmt.Errorf("probe %s: %w", name, err)
		}
	}
	eng.Go("probes", func() {
		probe("sim", func() error {
			a, z := eng.NewSemaphore("ping", 0), eng.NewSemaphore("pong", 0)
			const n = 50000
			done := eng.NewWaitGroup()
			done.Add(1)
			eng.Go("pong", func() {
				defer done.Done()
				for i := 0; i < n; i++ {
					a.Acquire()
					z.Release()
				}
			})
			ns, _ := probeLoop(n, func(int) { a.Release(); z.Acquire() })
			done.Wait()
			out["sim.handoff_ns"] = ns / 2 // one round trip is two handoffs
			out["sim.sleep_ns"], _ = probeLoop(n, func(int) { eng.Sleep(time.Microsecond) })
			return nil
		})
		probe("flash", func() error {
			cfg := kaml.SmallOptions().Flash
			arr := flash.New(eng, cfg)
			data := make([]byte, cfg.PageSize)
			rng.Read(data)
			oob := make([]byte, 8)
			blocks := cfg.Chips() * cfg.BlocksPerChip
			ppn := func(i int) flash.PPN {
				blk := i / cfg.PagesPerBlock
				chip := blk % cfg.Chips()
				return arr.BlockPPN(chip%cfg.Channels, chip/cfg.Channels, blk/cfg.Chips(), i%cfg.PagesPerBlock)
			}
			pages := blocks / 2 * cfg.PagesPerBlock
			var err error
			keep := func(e error) {
				if e != nil && err == nil {
					err = e
				}
			}
			out["flash.program_ns"], out["flash.program_allocs"] = probeLoop(pages, func(i int) { keep(arr.ProgramPage(ppn(i), data, oob)) })
			out["flash.read_ns"], _ = probeLoop(pages, func(i int) {
				_, _, e := arr.ReadPage(ppn(rng.Intn(pages)))
				keep(e)
			})
			out["flash.erase_ns"], _ = probeLoop(pages/cfg.PagesPerBlock, func(i int) { keep(arr.EraseBlock(ppn(i * cfg.PagesPerBlock))) })
			return err
		})
		probe("nvme", func() error {
			ctrl := nvme.New(eng, nvme.DefaultConfig())
			out["nvme.submit_ns"], _ = probeLoop(50000, func(int) { ctrl.Submission(); ctrl.Completion() })
			return nil
		})
		probe("record", func() error {
			pageSize, chunk := kaml.SmallOptions().Flash.PageSize, record.DefaultChunkSize
			vals := make([][]byte, 64)
			for i := range vals {
				vals[i] = make([]byte, 100+rng.Intn(1900))
				rng.Read(vals[i])
			}
			p := record.NewPacker(pageSize, chunk)
			var pageData, pageOOB []byte
			perPage := 0
			out["record.pack_ns"], out["record.pack_allocs"] = probeLoop(100000, func(i int) {
				r := record.Record{Namespace: 1, Key: uint64(i), Seq: uint64(i), Value: vals[i%len(vals)]}
				if !p.Fits(r.EncodedSize()) {
					perPage = p.Count()
					pageData, pageOOB = p.Finish()
				}
				p.Add(r)
			})
			var err error
			ns, _ := probeLoop(20000, func(int) {
				if _, e := record.Parse(pageData, pageOOB, chunk); e != nil && err == nil {
					err = e
				}
			})
			out["record.parse_ns"] = ns / float64(perPage)
			return err
		})
		probe("hashindex", func() error {
			const n = 1 << 16
			t := hashindex.NewConcurrent(n*4/3, false)
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()
				if _, _, err := t.Put(keys[i], uint64(i)); err != nil {
					return err
				}
			}
			var err error
			out["hashindex.get_ns"], _ = probeLoop(200000, func(i int) {
				if _, _, e := t.Get(keys[rng.Intn(n)]); e != nil && err == nil {
					err = e
				}
			})
			out["hashindex.upsert_ns"], _ = probeLoop(200000, func(i int) {
				if _, _, _, e := t.Upsert(keys[rng.Intn(n)], uint64(i)); e != nil && err == nil {
					err = e
				}
			})
			vc := hashindex.NewVersionChains(n)
			for seq := uint64(1); seq <= 3*n; seq++ {
				v, e := vc.Push(keys[seq%n], seq, seq)
				if e != nil {
					return e
				}
				vc.Commit(v)
			}
			out["hashindex.chain_get_ns"], _ = probeLoop(200000, func(int) {
				if _, _, e := vc.GetAtOrBefore(keys[rng.Intn(n)], uint64(1+rng.Intn(3*n))); e != nil && err == nil && e != hashindex.ErrNotFound {
					err = e
				}
			})
			return err
		})
		probe("cmdq", func() error {
			p := cmdq.New(eng, cmdq.Config{}, func(*cmdq.Command) cmdq.Result { return cmdq.Result{} })
			cmd := &cmdq.Command{Op: cmdq.OpGet, Namespace: 1}
			out["cmdq.submit_wait_ns"], _ = probeLoop(50000, func(i int) { cmd.Key = uint64(i); p.Submit(cmd).Wait() })
			out["cmdq.run_direct_ns"], _ = probeLoop(50000, func(i int) { cmd.Key = uint64(i); p.RunDirect(cmd) })
			p.Close()
			return nil
		})
		probe("lockmgr", func() error {
			m := lockmgr.New(eng, 1)
			var err error
			out["lockmgr.acquire_ns"], _ = probeLoop(100000, func(i int) {
				t := m.NewTxn(uint64(i + 1))
				if e := m.Acquire(t, 1, uint64(rng.Intn(1<<14)), lockmgr.Exclusive); e != nil && err == nil {
					err = e
				}
				m.ReleaseAll(t)
			})
			return err
		})
	})
	eng.Wait()
	return out, perr
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
