package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/sim"
	"github.com/kaml-ssd/kaml/internal/stats"
)

// slices splits a window into this many equal op-count slices; host_kops is
// the median of their rates, so one slow stretch (a neighbour's burst on the
// host) moves it less than a mean over the whole window would.
const slices = 10

// bench is one workload run on one serialized engine: set-up, the measured
// window, and the checks after it. Workload code runs in a single main
// actor and calls openWindow/closeWindow around the measured part.
type bench struct {
	seed      int64
	scale     int    // ops per window (closed loop) or arrivals per rung (open loop)
	setupOnly bool   // stop at openWindow: a set-up time sample
	skew      uint64 // added to get-zipf's expected version; tests set it to prove the check fires
	eng       *sim.Engine
	spans     *spanLog // nil unless traced
	profile   func() func()

	sample func() counters // reads the layer counters at window open and close
	atExit []func()        // run on the main actor after the workload returns

	wallStart time.Time
	setupWall time.Duration
	winWall   time.Duration
	virtOpen  time.Duration
	virtClose time.Duration
	mallocs   uint64
	heapLive  uint64
	c0, c1    counters
	stopProf  func()

	done     atomic.Int64
	sliceOps int64
	sliceAt  [slices + 1]time.Time

	mu        sync.Mutex
	attempted int64
	failed    int64

	out outcome
}

// outcome is what a workload reports beyond the counters.
type outcome struct {
	lat       []time.Duration // virtual op latencies in the reported phase
	phase     time.Duration   // virtual length of that phase
	phaseOps  int64           // ops completed in it
	writeAmp  float64
	writeNote string
	sloKops   float64
	sloLimit  time.Duration
	recover   time.Duration
	rungs     []*rung
	lateMax   time.Duration // open-loop generator lateness
	txn       txnCounts
}

// txnCounts are the transaction workload's own counts, the denominators of
// its lock-manager ratios.
type txnCounts struct {
	attempts, aborts, siAttempts, rmwCommits int64
}

// checkError is a failed output check; its name is what the run reports.
type checkError struct {
	name   string
	detail string
}

func (e *checkError) Error() string { return fmt.Sprintf("check %s failed: %s", e.name, e.detail) }

func checkFail(name, format string, args ...any) error {
	return &checkError{name: name, detail: fmt.Sprintf(format, args...)}
}

// openWindow ends set-up and starts the measured window of exactly ops
// ops. It returns false in a set-up-only run; the workload then returns.
func (b *bench) openWindow(ops int) bool {
	b.setupWall = time.Since(b.wallStart)
	if b.setupOnly {
		return false
	}
	b.sliceOps = int64(ops / slices)
	if b.sliceOps < 1 {
		b.sliceOps = 1
	}
	b.c0 = b.sample()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mallocs = ms.Mallocs
	if b.profile != nil {
		b.stopProf = b.profile()
	}
	b.virtOpen = b.eng.Now()
	b.sliceAt[0] = time.Now()
	return true
}

// closeWindow ends the measured window: host time, allocations, the live
// heap after a forced GC, and the closing counter reading.
func (b *bench) closeWindow() {
	end := time.Now()
	b.virtClose = b.eng.Now()
	if b.stopProf != nil {
		b.stopProf()
	}
	b.winWall = end.Sub(b.sliceAt[0])
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mallocs = ms.Mallocs - b.mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.heapLive = ms.HeapAlloc
	b.c1 = b.sample()
}

// closeAtExit closes *d, if non-nil, after the workload returns on any
// path: a device left open keeps its background actors, and so the engine,
// running forever.
func (b *bench) closeAtExit(d **kaml.Device) {
	b.atExit = append(b.atExit, func() {
		if *d != nil {
			(*d).Close()
		}
	})
}

// opDone counts one completed window op and stamps slice boundaries.
func (b *bench) opDone() {
	n := b.done.Add(1)
	if n%b.sliceOps == 0 && n/b.sliceOps <= slices {
		b.sliceAt[n/b.sliceOps] = time.Now()
	}
}

// note records one attempted op and whether it failed.
func (b *bench) note(failed bool) {
	b.mu.Lock()
	b.attempted++
	if failed {
		b.failed++
	}
	b.mu.Unlock()
}

// hostKops is the median over the window's slices of ops per host second.
func (b *bench) hostKops() float64 {
	var rates []float64
	for i := 1; i <= slices; i++ {
		d := b.sliceAt[i].Sub(b.sliceAt[i-1])
		if b.sliceAt[i].IsZero() || d <= 0 {
			break
		}
		rates = append(rates, float64(b.sliceOps)/d.Seconds()/1e3)
	}
	return median(rates)
}

// closedLoop runs one actor per PRNG in rngs, each issuing perClient ops
// back to back, and waits for all of them. Each client draws from its own
// PRNG, so its op sequence does not depend on the schedule. In the window
// it counts each op and records its virtual latency. The first op error
// stops the run.
func (b *bench) closedLoop(rngs []*rand.Rand, perClient int, window bool, op func(client int, rng *rand.Rand) error) ([]time.Duration, error) {
	lats := make([][]time.Duration, len(rngs))
	errs := make([]error, len(rngs))
	wg := b.eng.NewWaitGroup()
	for c := range rngs {
		c := c
		if window {
			lats[c] = make([]time.Duration, 0, perClient)
		}
		wg.Add(1)
		b.eng.Go(fmt.Sprintf("client%d", c), func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				t0 := b.eng.Now()
				err := op(c, rngs[c])
				if window {
					b.note(err != nil)
				}
				if err != nil {
					errs[c] = err
					return
				}
				if window {
					lats[c] = append(lats[c], b.eng.Now()-t0)
					b.opDone()
				}
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, nil
}

// clientRNGs returns n PRNGs seeded from the workload seed.
func clientRNGs(seed int64, n int) []*rand.Rand {
	r := make([]*rand.Rand, n)
	for i := range r {
		r[i] = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
	}
	return r
}

// rung is one fixed-rate phase of an open loop.
type rung struct {
	rate       float64 // offered ops per virtual second
	lat        []time.Duration
	start      time.Duration // virtual time the rung began offering load
	lastDone   atomic.Int64  // virtual time its last op completed
	backlogMid int64         // ops in flight halfway through its arrivals
	backlogEnd int64         // ops in flight after its last arrival
}

// kops is the rung's completed ops per virtual second, in thousands: from
// its start to its last completion, so a rung the system cannot keep up
// with reads below its offered rate.
func (r *rung) kops() float64 {
	return float64(len(r.lat)) / (time.Duration(r.lastDone.Load()) - r.start).Seconds() / 1e3
}

// sustained reports whether the rung met the p99 limit without a growing
// backlog: ops in flight after the last arrival may exceed those halfway
// through by at most 1% of the rung's arrivals.
func (r *rung) sustained(limit time.Duration) bool {
	grew := r.backlogEnd-r.backlogMid > int64(len(r.lat))/100
	return !grew && quantiles(r.lat).Quantile(0.99) <= limit
}

// failedLatency is the latency recorded for an op that failed: it misses
// every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// openLoop offers Poisson arrivals at each rate in turn, perRung arrivals
// per rate, without pausing between rates. gen draws an op's parameters on
// the generator, so the stream depends only on the seed; the func it
// returns runs as its own actor and reports whether the op succeeded (a
// failed op is counted, not fatal) or an error that stops the run. A latency runs from the op's intended
// arrival time, so a stall is charged to every op queued behind it.
func (b *bench) openLoop(rates []float64, perRung int, gen func(rng *rand.Rand) func() (bool, error)) ([]*rung, error) {
	rng := rand.New(rand.NewSource(b.seed*104729 + 17))
	var inflight atomic.Int64
	var firstErr atomic.Pointer[error]
	wg := b.eng.NewWaitGroup()
	rungs := make([]*rung, len(rates))
	next := b.eng.Now()
	for r, rate := range rates {
		rg := &rung{rate: rate, lat: make([]time.Duration, perRung), start: next}
		rungs[r] = rg
		for i := 0; i < perRung && firstErr.Load() == nil; i++ {
			next += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if d := next - b.eng.Now(); d > 0 {
				b.eng.Sleep(d)
			}
			if late := b.eng.Now() - next; late > b.out.lateMax {
				b.out.lateMax = late
			}
			if i == perRung/2 {
				rg.backlogMid = inflight.Load()
			}
			run, due, i := gen(rng), next, i
			inflight.Add(1)
			wg.Add(1)
			b.eng.Go("op", func() {
				defer wg.Done()
				ok, err := run()
				now := b.eng.Now()
				inflight.Add(-1)
				b.note(!ok || err != nil)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				rg.lat[i] = now - due
				if !ok {
					rg.lat[i] = failedLatency
				}
				if int64(now) > rg.lastDone.Load() {
					rg.lastDone.Store(int64(now))
				}
				b.opDone()
			})
		}
		rg.backlogEnd = inflight.Load()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return nil, *p
	}
	return rungs, nil
}

// quantiles loads latencies into the repository's exact nearest-rank
// quantile reservoir.
func quantiles(lat []time.Duration) *stats.Histogram {
	h := &stats.Histogram{}
	for _, d := range lat {
		h.Add(d)
	}
	return h
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// keyDist draws keys from a zipf(theta) distribution over n keys by
// inverse CDF, so any theta works (math/rand's Zipf needs theta > 1). Ranks
// map to keys through a fixed permutation, so hot keys are scattered over
// the devices. The permutation is the same for every seed: which keys are
// hot decides which flash chips queue, and a per-seed choice would make the
// seed, not the program, the main source of run-to-run spread. The seed
// drives the draws.
type keyDist struct {
	cdf  []float64
	perm []int
}

// hotSetSeed fixes the rank-to-key permutation.
const hotSetSeed = 20170207

func newKeyDist(n int, theta float64) *keyDist {
	d := &keyDist{cdf: make([]float64, n), perm: rand.New(rand.NewSource(hotSetSeed)).Perm(n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		d.cdf[i] = sum
	}
	for i := range d.cdf {
		d.cdf[i] /= sum
	}
	return d
}

func (d *keyDist) draw(rng *rand.Rand) uint64 {
	i := sort.SearchFloat64s(d.cdf, rng.Float64())
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	return uint64(d.perm[i])
}

// Values carry a 16-byte header (key, version) followed by filler derived
// from (seed, key, version), so any returned value can be checked against
// the bytes the generator wrote without keeping them in memory.
const valueHeader = 16

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fillValue writes the value for (key, ver) into dst (its length is the
// value size) and returns dst.
func fillValue(dst []byte, seed int64, key, ver uint64) []byte {
	binary.LittleEndian.PutUint64(dst[0:8], key)
	binary.LittleEndian.PutUint64(dst[8:16], ver)
	x := mix64(uint64(seed) ^ key*0x9e3779b97f4a7c15 ^ ver<<32)
	i := valueHeader
	for ; i+8 <= len(dst); i += 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(x >> (8 * (i % 8)))
	}
	return dst
}

// valueOK reports whether v is exactly the value the generator wrote for
// key at version ver with length size; scratch must hold size bytes.
func valueOK(v []byte, seed int64, key, ver uint64, size int, scratch []byte) bool {
	if len(v) != size {
		return false
	}
	return string(fillValue(scratch[:size], seed, key, ver)) == string(v)
}

// valueVersion decodes the version from a value's header, with ok false if
// the header names another key.
func valueVersion(v []byte, key uint64) (ver uint64, ok bool) {
	if len(v) < valueHeader || binary.LittleEndian.Uint64(v[0:8]) != key {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v[8:16]), true
}
