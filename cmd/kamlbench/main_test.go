package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioWritesProfiles checks that -cpuprofile and -memprofile are
// honoured in scenario mode, which returns before the experiment loop.
func TestScenarioWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", "diurnal", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(p))
		}
	}
}

// TestClusterReportsAllocsPerOp checks that kamlcluster counts the
// operations it issues, so its allocs/op is a real number.
func TestClusterReportsAllocsPerOp(t *testing.T) { checkReportsAllocsPerOp(t, "kamlcluster") }

// TestFig6ReportsAllocsPerOp checks that fig6 counts the operations its
// latency cells time, so its allocs/op is a real number.
func TestFig6ReportsAllocsPerOp(t *testing.T) { checkReportsAllocsPerOp(t, "fig6") }

// checkReportsAllocsPerOp runs experiment id at a small scale and fails
// unless its JSON report carries a positive allocs/op.
func checkReportsAllocsPerOp(t *testing.T, id string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), id+".json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", id, "-scale", "0.05", "-json", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr: %s", code, stderr.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiments []struct {
			AllocsPerOp *float64 `json:"allocs_per_op"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("%d experiments in report, want 1", len(rep.Experiments))
	}
	if a := rep.Experiments[0].AllocsPerOp; a == nil || *a <= 0 {
		t.Fatalf("allocs_per_op = %v, want a positive number", a)
	}
}

// TestAllocsPerOpNotAvailable runs an experiment that counts no operations
// and checks that its allocation figure is reported as unavailable (n/a on
// stdout, null in the JSON report) rather than as 0.
func TestAllocsPerOpNotAvailable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "conflicts.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "conflicts", "-scale", "0.05", "-parallel", "1", "-json", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "allocs/op n/a)") {
		t.Fatalf("summary line does not say allocs/op n/a:\n%s", stdout.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiments []map[string]json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("%d experiments in report, want 1", len(rep.Experiments))
	}
	if got, ok := rep.Experiments[0]["allocs_per_op"]; !ok || string(got) != "null" {
		t.Fatalf("allocs_per_op = %s (present %v), want null", got, ok)
	}

	v := 12.4
	if got := formatAllocs(&v); got != "12 allocs/op" {
		t.Fatalf("formatAllocs(12.4) = %q", got)
	}
}
