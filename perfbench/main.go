// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator through the layers' exported functions, checks the
// outputs, and prints every end-to-end metric (or, with --trace 1, every
// per-layer metric) by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload put-churn --seed 1 --seconds 10 --trace 0
//
// Every workload runs on a sim.Engine serialized with the seed, so
// virtual-clock metrics and op counts repeat exactly for a seed; host-clock
// metrics (host_kops, allocs_per_op, heap_live_mb, setup_s) are the noisy
// ones. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// metricDef names one metric and its unit, exactly as BENCHMARK.json does.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, for every workload.
var endToEnd = []metricDef{
	{"host_kops", "kops/s"},
	{"allocs_per_op", "allocs/op"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
	{"virt_kops", "kops/s"},
	{"virt_p50_us", "us"},
	{"virt_p99_us", "us"},
	{"virt_p999_us", "us"},
	{"write_amp", "ratio"},
	{"slo_kops", "kops/s"},
	{"virt_recover_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run prints, for every workload; one
// the workload cannot measure is listed under "omitted" with its reason.
var perLayer = []metricDef{
	{"sim.handoff_ns", "ns"}, {"sim.sleep_ns", "ns"}, {"sim.cpu_share", "fraction"},
	{"flash.program_ns", "ns"}, {"flash.program_allocs", "allocs/op"}, {"flash.read_ns", "ns"},
	{"flash.erase_ns", "ns"}, {"flash.programs_per_kop", "count/kop"}, {"flash.reads_per_kop", "count/kop"},
	{"flash.erases_per_kop", "count/kop"}, {"flash.cpu_share", "fraction"},
	{"nvme.submit_ns", "ns"}, {"nvme.cpu_share", "fraction"},
	{"record.pack_ns", "ns"}, {"record.pack_allocs", "allocs/op"}, {"record.parse_ns", "ns"},
	{"record.cpu_share", "fraction"},
	{"hashindex.get_ns", "ns"}, {"hashindex.upsert_ns", "ns"}, {"hashindex.chain_get_ns", "ns"},
	{"hashindex.probes_per_op", "count/op"}, {"hashindex.read_retries_per_kop", "count/kop"},
	{"hashindex.chain_len_p99", "count"}, {"hashindex.pruned_per_kop", "count/kop"},
	{"hashindex.cpu_share", "fraction"},
	{"kamlssd.nvram_hit_ratio", "ratio"}, {"kamlssd.gc_copies_per_kop", "count/kop"},
	{"kamlssd.gc_erases_per_kop", "count/kop"}, {"kamlssd.gc_pause_p99_us", "us"},
	{"kamlssd.install_p99_us", "us"}, {"kamlssd.recover_wall_ms", "ms"}, {"kamlssd.cpu_share", "fraction"},
	{"cmdq.recs_per_batch", "count"}, {"cmdq.coalesced_frac", "fraction"},
	{"cmdq.backpressure_per_kop", "count/kop"}, {"cmdq.queue_p99_us", "us"},
	{"cmdq.coalesce_p99_us", "us"}, {"cmdq.exec_p99_us", "us"}, {"cmdq.mean_occupancy", "count"},
	{"cmdq.submit_wait_ns", "ns"}, {"cmdq.run_direct_ns", "ns"}, {"cmdq.cpu_share", "fraction"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions_per_kop", "count/kop"}, {"cache.read_wall_ns", "ns"},
	{"cache.commit_virt_p99_us", "us"}, {"cache.cpu_share", "fraction"},
	{"lockmgr.acquires_per_txn", "count/txn"}, {"lockmgr.waits_per_ktxn", "count/ktxn"},
	{"lockmgr.dies_per_ktxn", "count/ktxn"}, {"lockmgr.abort_ratio", "ratio"},
	{"lockmgr.si_validation_fail_ratio", "ratio"}, {"lockmgr.acquire_ns", "ns"}, {"lockmgr.cpu_share", "fraction"},
	{"cluster.hedges_per_kop", "count/kop"}, {"cluster.hedge_win_ratio", "ratio"},
	{"cluster.retries_per_kop", "count/kop"}, {"cluster.get_p99_us", "us"}, {"cluster.put_p99_us", "us"},
	{"cluster.cpu_share", "fraction"},
	{"telemetry.cpu_share", "fraction"},
	{"gen.late_max_us", "us"}, {"gen.cpu_share", "fraction"}, {"trace.overhead_frac", "fraction"},
}

// setups is how many times a --trace 0 run sets its workload up; setup_s
// is their median. The last set-up goes on to the measured window.
const setups = 3

// jsonMetric is one entry of the result line's "metrics" object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// deadline bounds a run's host time. A firmware livelock (a device driven
// full keeps the virtual clock moving, so the engine's deadlock watchdog
// never fires) then ends the run with an error instead of hanging.
const deadline = 170 * time.Second

func main() {
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v of host time; stopping\n", deadline)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for every generated key, value, op and arrival, and for the engine's schedule")
	seconds := fs.Int("seconds", 10, "window size: the window runs seconds x the workload's nominal host rate ops")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d (%s)\n", w.name, *seed, *seconds, *trace, runtime.Version())
	if w.ungated != "" {
		fmt.Fprintf(stdout, "note: BENCHMARK.json does not gate on %s: %s\n", w.name, w.ungated)
	}
	var (
		res *resultLine
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(stdout, w, *seed, *seconds, *outDir)
	} else {
		res, err = untracedRun(stdout, w, *seed, *seconds)
	}
	var ce *checkError
	if errors.As(err, &ce) {
		if res == nil {
			res = &resultLine{Metrics: map[string]jsonMetric{}}
		}
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		fmt.Fprintf(stdout, "FAILED check %s\n", ce.name)
		res.Correct = false
		printJSON(stdout, res)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printJSON(stdout, res)
	return 0
}

func printJSON(w io.Writer, res *resultLine) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", b)
}

// execute runs workload w once, as b's seed, scale and flags say, on a
// fresh engine serialized with the seed.
func execute(w workload, b *bench) error {
	b.eng = sim.NewEngine()
	b.eng.Serialize(b.seed)
	b.wallStart = time.Now()
	if b.spans != nil {
		b.spans.eng, b.spans.base = b.eng, b.wallStart
	}
	body, err := w.run(b)
	if err != nil {
		return err
	}
	var runErr error
	b.eng.Go("main", func() {
		runErr = body()
		for i := len(b.atExit) - 1; i >= 0; i-- {
			b.atExit[i]()
		}
	})
	b.eng.Wait()
	return runErr
}

// untracedRun sets the workload up `setups` times, measures the last one,
// and reports the end-to-end metrics.
func untracedRun(stdout io.Writer, w workload, seed int64, seconds int) (*resultLine, error) {
	var setupS []float64
	for i := 1; i < setups; i++ {
		b := &bench{seed: seed, scale: seconds * w.perSecond, setupOnly: true}
		if err := execute(w, b); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, b.setupWall.Seconds())
	}
	b := &bench{seed: seed, scale: seconds * w.perSecond}
	err := execute(w, b)
	res := &resultLine{Correct: err == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	if err != nil {
		return res, err
	}
	setupS = append(setupS, b.setupWall.Seconds())
	fmt.Fprintf(stdout, "set-up samples (s): %s\n", floats(setupS))
	e2e, err := endToEndValues(stdout, b)
	if err != nil {
		return res, err
	}
	e2e["setup_s"] = median(setupS)
	fmt.Fprintf(stdout, "%-16s %14s  %s\n", "metric", "value", "unit")
	for _, m := range endToEnd {
		v := e2e[m.name]
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-16s %14.4f  %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(stdout, "err_frac %d/%d failed\n", b.failed, b.attempted)
	return res, nil
}

// endToEndValues derives the end-to-end metrics of a measured run.
func endToEndValues(stdout io.Writer, b *bench) (map[string]float64, error) {
	o := &b.out
	n := len(o.lat)
	if n < 10000 {
		return nil, fmt.Errorf("%d latency samples: p99.9 needs at least 10000 (10 beyond it); raise --seconds", n)
	}
	lat := quantiles(o.lat)
	us := func(q float64) float64 { return float64(lat.Quantile(q)) / 1e3 }
	ops := float64(b.done.Load())
	virtKops := float64(o.phaseOps) / o.phase.Seconds() / 1e3
	fmt.Fprintf(stdout, "window: %d ops in %.3f host s and %.3f virtual s; %d latency samples (%d beyond p99.9); generator late by at most %v\n",
		b.done.Load(), b.winWall.Seconds(), (b.virtClose - b.virtOpen).Seconds(), n, n-int(math.Ceil(0.999*float64(n))), o.lateMax)
	for i, r := range o.rungs {
		q := quantiles(r.lat)
		fmt.Fprintf(stdout, "rung %d: offered %.0f/s completed %.3f kops/s p50 %v p99 %v backlog %d->%d sustained=%v\n",
			i, r.rate, r.kops(), q.Quantile(0.5), q.Quantile(0.99), r.backlogMid, r.backlogEnd, r.sustained(o.sloLimit))
	}
	if o.writeNote != "" {
		fmt.Fprintf(stdout, "write_amp: %s\n", o.writeNote)
	}
	return map[string]float64{
		"host_kops":       b.hostKops(),
		"allocs_per_op":   float64(b.mallocs) / ops,
		"heap_live_mb":    float64(b.heapLive) / (1 << 20),
		"virt_kops":       virtKops,
		"virt_p50_us":     us(0.50),
		"virt_p99_us":     us(0.99),
		"virt_p999_us":    us(0.999),
		"write_amp":       o.writeAmp,
		"slo_kops":        o.sloKops,
		"virt_recover_ms": float64(o.recover) / 1e6,
	}, nil
}

// tracedRun measures the workload untraced, then again with spans and a
// CPU profile, then runs the layer probes, and reports the per-layer
// metrics. trace.overhead_frac compares the two windows' host_kops.
func tracedRun(stdout io.Writer, w workload, seed int64, seconds int, outDir string) (*resultLine, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	plain := &bench{seed: seed, scale: seconds * w.perSecond}
	err := execute(w, plain)
	res := &resultLine{Correct: err == nil, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]jsonMetric{}}
	if err != nil {
		return res, err
	}
	profPath := filepath.Join(outDir, w.name+".cpu.pprof")
	var profErr error
	profile := func() func() {
		f, err := os.Create(profPath)
		if err != nil {
			profErr = err
			return nil
		}
		// Raising the rate before StartCPUProfile keeps it: the runtime
		// refuses StartCPUProfile's own 100 Hz while a rate is set and says
		// so on standard error.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			profErr = err
			f.Close()
			return nil
		}
		return func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				profErr = err
			}
		}
	}
	spans := &spanLog{}
	b := &bench{seed: seed, scale: seconds * w.perSecond, spans: spans, profile: profile}
	err = execute(w, b)
	res.Attempted, res.Failed = b.attempted, b.failed
	if err != nil {
		res.Correct = false
		return res, err
	}
	if profErr != nil {
		return res, fmt.Errorf("cpu profile: %w", profErr)
	}
	probes, err := runProbes(seed, spans)
	if err != nil {
		return res, err
	}
	spanPath := filepath.Join(outDir, w.name+".spans.tsv")
	if err := spans.write(spanPath); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s; profile: %s\n", len(spans.spans), spanPath, profPath)

	l := newLayerSet()
	for k, v := range probes {
		l.set(k, v)
	}
	ops := float64(b.done.Load())
	counterMetrics(l, b, ops)
	spanMetrics(l, spans.spans)
	l.set("gen.late_max_us", float64(b.out.lateMax)/1e3)
	l.set("trace.overhead_frac", 1-b.hostKops()/plain.hostKops())
	shares, samples, err := profileShares(profPath)
	switch {
	case err != nil:
		for _, c := range cpuLayers {
			l.omit(c+".cpu_share", err.Error())
		}
	case samples < minProfileSamples:
		for _, c := range cpuLayers {
			l.omit(c+".cpu_share", fmt.Sprintf("profile has %d samples, fewer than %d", samples, minProfileSamples))
		}
	default:
		sum := 0.0
		for _, c := range cpuLayers {
			l.set(c+".cpu_share", shares[c])
			sum += shares[c]
		}
		var other []string
		for _, k := range sortedKeys(shares) {
			if !contains(cpuLayers, k) {
				other = append(other, fmt.Sprintf("%s=%.4f", k, shares[k]))
			}
		}
		fmt.Fprintf(stdout, "profile: %d samples; listed layers' cpu_share sums to %.4f; other repo packages: %s\n",
			samples, sum, strings.Join(other, " "))
	}
	for _, m := range perLayer {
		if _, ok := l.vals[m.name]; !ok {
			l.omit(m.name, "the layer is not on "+w.name+"'s path")
		}
	}
	fmt.Fprintf(stdout, "%-34s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		if v, ok := l.vals[m.name]; ok {
			res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
			fmt.Fprintf(stdout, "%-34s %14.4f  %s\n", m.name, v, m.unit)
		}
	}
	for _, m := range perLayer {
		if why, ok := l.omitted[m.name]; ok {
			// The result line needs a number for every metric; 0 here
			// means "not measured", for the reason printed.
			res.Metrics[m.name] = jsonMetric{Value: 0, Unit: m.unit}
			fmt.Fprintf(stdout, "omitted %s: %s\n", m.name, why)
		}
	}
	return res, nil
}

func floats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
