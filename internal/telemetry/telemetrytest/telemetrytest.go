// Package telemetrytest reads a registry back the way a Prometheus scraper
// does, so tests can check that a typed Stats view and the /metrics
// exposition agree.
package telemetrytest

import (
	"strconv"
	"strings"

	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Scrape renders r in exposition format and returns each series family's
// value summed over its labels: counters and gauges under their name,
// histograms as name_sum and name_count (name_bucket lines are skipped).
func Scrape(r *telemetry.Registry) map[string]int64 {
	var b strings.Builder
	r.WritePrometheus(&b)
	out := make(map[string]int64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			panic("telemetrytest: bad exposition line " + strconv.Quote(line))
		}
		out[name] += int64(v)
	}
	return out
}
