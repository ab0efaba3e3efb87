package experiments

import "testing"

// TestTablesDeterministic guards the byte-level figure-table oracle: fig6
// and conflicts run entirely on virtual clocks, so two runs at the same
// scale must render identical tables, whatever the cell worker-pool size.
// (Experiments that sample wall-clock time, such as fig5 and qdsweep, are
// not byte-deterministic and are not checked here.)
func TestTablesDeterministic(t *testing.T) {
	const s = Scale(0.05)
	render := func() string {
		var out string
		for _, tb := range Fig6(s) {
			out += tb.Render()
		}
		return out + Conflicts(s).Render()
	}
	first := render()
	defer SetParallelism(0)
	SetParallelism(1)
	if second := render(); second != first {
		t.Fatalf("tables differ between runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}
