package cmdq

import (
	"time"

	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Lifecycle stages traced per command. A command is timestamped at Submit
// and at each transition; the deltas land in per-(op, stage) histograms:
//
//	queue    — submit → worker pickup (direct commands: Get, Snapshot,
//	           admin; always zero for RunDirect commands, which never queue)
//	coalesce — submit → group-commit cut (coalesced writes: the window wait)
//	exec     — the exec function's runtime; for writes this is the NVRAM
//	           batch commit (flash install is asynchronous and measured by
//	           the firmware's flusher, see kamlssd metrics)
//	total    — submit → future resolved
const (
	stageQueue = iota
	stageCoalesce
	stageExec
	stageTotal
	numStages
)

var stageNames = [numStages]string{"queue", "coalesce", "exec", "total"}

// numOps sizes the per-op instrument tables (Op values start at 1).
const numOps = int(OpDeleteNS) + 1

// metrics holds the pipeline's pre-resolved telemetry instruments,
// registered once in the pipeline's registry (Config.Registry). Every
// hot-path record is an atomic add with no registry lookup, and they are
// the pipeline's only counters: Pipeline.Stats reads them back.
type metrics struct {
	depth            *telemetry.Gauge     // current occupancy (bounded by Depth)
	submitOcc        *telemetry.Histogram // occupancy reached by each accepted command
	completed        *telemetry.Counter   // commands whose completion resolved
	backpressure     *telemetry.Counter   // Submits that parked on a full pipeline
	batchRecords     *telemetry.Histogram
	batchCommits     *telemetry.Counter
	coalescedPuts    *telemetry.Counter
	completionFlocks *telemetry.Counter // batched completion deliveries

	stage [numOps][numStages]*telemetry.Histogram
	reg   *telemetry.Registry // for lazily registering rare (admin) op series
}

// newMetrics registers the pipeline's instruments in r.
func newMetrics(r *telemetry.Registry) *metrics {
	r.Help("kaml_cmdq_occupancy", "Commands submitted but not yet completed.")
	r.Help("kaml_cmdq_backpressure_waits_total", "Submit calls that parked because the pipeline was at Depth.")
	r.Help("kaml_cmdq_batch_records", "Records per coalescer group commit.")
	r.Help("kaml_cmdq_batch_commits_total", "Group commits issued by the coalescer.")
	r.Help("kaml_cmdq_coalesced_puts_total", "Write commands that shared a batch commit with at least one other.")
	r.Help("kaml_cmdq_completion_batches_total", "Completion deliveries; each releases one drained batch's occupancy with a single queue-space wakeup.")
	r.Help("kaml_cmdq_stage_seconds", "Per-stage command latency (virtual time) by op and lifecycle stage.")
	r.Help("kaml_cmdq_submit_occupancy", "Occupancy including the command, sampled as each command is accepted (the count is the commands accepted).")
	r.Help("kaml_cmdq_completed_total", "Commands whose completion resolved.")
	m := &metrics{
		depth:            r.Gauge("kaml_cmdq_occupancy"),
		backpressure:     r.Counter("kaml_cmdq_backpressure_waits_total"),
		batchRecords:     r.Histogram("kaml_cmdq_batch_records", telemetry.UnitNone),
		batchCommits:     r.Counter("kaml_cmdq_batch_commits_total"),
		coalescedPuts:    r.Counter("kaml_cmdq_coalesced_puts_total"),
		completionFlocks: r.Counter("kaml_cmdq_completion_batches_total"),
	}
	// Eagerly register the stage series that matter for scraping (Get and
	// Put cover the hot path; the rest register on first use).
	for _, op := range []Op{OpGet, OpPut, OpPutBatch, OpSnapshot} {
		for st := 0; st < numStages; st++ {
			m.stageHist(op, st, r)
		}
	}
	m.submitOcc = r.Histogram("kaml_cmdq_submit_occupancy", telemetry.UnitNone)
	m.completed = r.Counter("kaml_cmdq_completed_total")
	m.reg = r
	return m
}

func (m *metrics) stageHist(op Op, st int, r *telemetry.Registry) *telemetry.Histogram {
	h := r.Histogram("kaml_cmdq_stage_seconds", telemetry.UnitSeconds,
		"op", op.String(), "stage", stageNames[st])
	m.stage[op][st] = h
	return h
}

func (m *metrics) observeStage(op Op, st int, d time.Duration) {
	h := m.stage[op][st]
	if h == nil {
		h = m.stageHist(op, st, m.reg)
	}
	h.ObserveDuration(d)
}
