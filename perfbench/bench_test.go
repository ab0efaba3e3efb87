package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Small scales keep each self-test to about a second.
const testScale = 4000

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// virtualResult is everything a run reports on the virtual clock, plus its
// op counts: what must repeat exactly for a seed.
type virtualResult struct {
	Lat                []int64
	Ops, Attempted     int64
	Window             int64 // virtual length; the cluster's start time is host-dependent
	Recover            int64
	WriteAmp, SloKops  float64
	Programs, GCErases int64
	Probes, FlashBytes int64
}

func virtualOf(b *bench) virtualResult {
	v := virtualResult{Ops: b.done.Load(), Attempted: b.attempted,
		Window: int64(b.virtClose - b.virtOpen), Recover: int64(b.out.recover),
		WriteAmp: b.out.writeAmp, SloKops: b.out.sloKops,
		Programs: b.c1.st.Programs, GCErases: b.c1.st.GCErases,
		Probes: b.c1.st.IndexProbes, FlashBytes: b.c1.st.FlashBytesWritten}
	for _, l := range b.out.lat {
		v.Lat = append(v.Lat, int64(l))
	}
	return v
}

func TestSameSeedRepeatsVirtualMetrics(t *testing.T) {
	for _, name := range []string{"put-churn", "get-zipf", "cluster-open"} {
		w := mustWorkload(t, name)
		var got []virtualResult
		for i := 0; i < 2; i++ {
			b := &bench{seed: 7, scale: testScale}
			if err := execute(w, b); err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			got = append(got, virtualOf(b))
		}
		if got[0].Ops == 0 || len(got[0].Lat) == 0 {
			t.Fatalf("%s: empty window", name)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: seed 7 twice gave different virtual results:\n%+v\n%+v", name, summary(got[0]), summary(got[1]))
		}
	}
}

func summary(v virtualResult) virtualResult {
	if len(v.Lat) > 5 {
		v.Lat = v.Lat[:5]
	}
	return v
}

func TestDifferentSeedsGiveDifferentKeyStreams(t *testing.T) {
	dist := newKeyDist(zipfKeys, zipfTheta)
	stream := func(seed int64) []uint64 {
		rng := clientRNGs(seed, 1)[0]
		keys := make([]uint64, 200)
		for i := range keys {
			keys[i] = dist.draw(rng)
		}
		return keys
	}
	a, b := stream(1), stream(2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 drew the same key stream")
	}
	if !reflect.DeepEqual(a, stream(1)) {
		t.Fatal("seed 1 drew two different key streams")
	}
}

func TestWrongExpectedValueFailsCheck(t *testing.T) {
	v := fillValue(make([]byte, 256), 3, 42, 9)
	scratch := make([]byte, 256)
	if !valueOK(v, 3, 42, 9, 256, scratch) {
		t.Fatal("the written value does not check")
	}
	for _, c := range []struct {
		seed     int64
		key, ver uint64
		size     int
	}{{4, 42, 9, 256}, {3, 43, 9, 256}, {3, 42, 10, 256}, {3, 42, 9, 255}} {
		if valueOK(v, c.seed, c.key, c.ver, c.size, scratch) {
			t.Errorf("value checks against wrong expectation %+v", c)
		}
	}

	err := execute(mustWorkload(t, "get-zipf"), &bench{seed: 5, scale: testScale, skew: 1})
	var ce *checkError
	if !errors.As(err, &ce) || ce.name != "get-zipf.value" {
		t.Fatalf("a wrong expected version gave %v, want check get-zipf.value to fail", err)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var gated, listed []string
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w.name)
		}
	}
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(gated, listed) {
		t.Errorf("gated workloads %v, BENCHMARK.json lists %v", gated, listed)
	}
	check := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		var got []struct{ Name, Unit string }
		for _, d := range defs {
			got = append(got, struct{ Name, Unit string }{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", kind, got, want)
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)

	// The printed result line names exactly those metrics, with their units.
	for _, c := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", bj.EndToEnd}, {"1", bj.PerLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "get-zipf", "--seed", "3", "--seconds", "1", "--trace", c.trace, "--out", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", c.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: result %+v", c.trace, res)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s printed metrics\n%v\nwant\n%v", c.trace, got, want)
		}
	}
}

func TestParseTracesChargesInnermostRepoFrame(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 12ms (1%)
-----------+-------------------------------------------------------
       6ms   runtime.mallocgc
             github.com/kaml-ssd/kaml/internal/record.(*Packer).Add
             github.com/kaml-ssd/kaml/internal/kamlssd.(*Device).execPut
-----------+-------------------------------------------------------
       2ms   main.fillValue
             github.com/kaml-ssd/kaml/internal/sim.(*Engine).Go.func1
-----------+-------------------------------------------------------
       2ms   sync/atomic.(*Pointer[go.shape.struct { github.com/kaml-ssd/kaml/internal/cmdq.mu *github.com/kaml-ssd/kaml/internal/sim.Mutex }]).Load (inline)
             github.com/kaml-ssd/kaml/internal/cmdq.(*Future[go.shape.struct { github.com/kaml-ssd/kaml/internal/sim.x int }]).complete
-----------+-------------------------------------------------------
       2ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	shares, samples, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"record": 0.5, "gen": 2.0 / 12, "cmdq": 2.0 / 12}
	if !reflect.DeepEqual(shares, want) {
		t.Errorf("shares %v, want %v", shares, want)
	}
	if samples != 6 {
		t.Errorf("samples %d, want 6 at %d Hz", samples, profileHz)
	}
}
