package kamlssd

import (
	"fmt"

	"github.com/kaml-ssd/kaml/internal/cmdq"
	"github.com/kaml-ssd/kaml/internal/record"
)

// This file is the device's face of the asynchronous command pipeline
// (internal/cmdq). SubmitGet/SubmitPut/SubmitSnapshot charge the NVMe
// submission transfer in the calling actor, hand a typed command to the
// pipeline, and return its completion future; the synchronous Get/Put/
// SnapshotNamespace in ops.go and snapshot.go are thin Wait wrappers. The
// exec* functions they dispatch to hold the firmware logic and run on
// pipeline worker (or coalescer) actors.

// SubmitGet enqueues a Get command and returns its completion future; the
// read value arrives in Result.Value.
func (d *Device) SubmitGet(nsID uint32, key uint64) *cmdq.Future {
	d.ctrl.Submission()
	return d.pipe.Submit(&cmdq.Command{Op: cmdq.OpGet, Namespace: nsID, Key: key})
}

// SubmitPut enqueues an atomic Put batch and returns its completion future.
// The batch is validated before submission — a malformed batch must fail
// its own future immediately, never a coalesced neighbor's. Single-record
// batches (and batches small enough to share a commit) may be merged with
// concurrent Puts into one NVRAM batch commit by the pipeline's coalescer.
func (d *Device) SubmitPut(batch []PutRecord) *cmdq.Future {
	if len(batch) == 0 {
		return cmdq.Resolved(d.eng, cmdq.Result{})
	}
	maxVal := d.fc.PageSize - record.HeaderSize
	for _, r := range batch {
		if len(r.Value) > maxVal {
			return cmdq.Resolved(d.eng, cmdq.Result{
				Err: fmt.Errorf("%w: %d bytes", ErrValueTooLarge, len(r.Value)),
			})
		}
	}
	if len(batch) > 1 {
		seen := make(map[nskey]bool, len(batch))
		for _, r := range batch {
			k := nskey{ns: r.Namespace, key: r.Key}
			if seen[k] {
				return cmdq.Resolved(d.eng, cmdq.Result{
					Err: fmt.Errorf("%w: duplicate key %d in batch", ErrBadBatch, r.Key),
				})
			}
			seen[k] = true
		}
	}
	pc := &putCommand{}
	recs := pc.one[:]
	if len(batch) > 1 {
		recs = make([]cmdq.Record, len(batch))
	}
	for i, r := range batch {
		recs[i] = cmdq.Record{Namespace: r.Namespace, Key: r.Key, Value: r.Value}
	}
	op := cmdq.OpPut
	if len(recs) > 1 {
		op = cmdq.OpPutBatch
	}
	pc.cmd = cmdq.Command{Op: op, Records: recs}
	d.ctrl.Submission()
	return d.pipe.Submit(&pc.cmd)
}

// putCommand allocates a write command together with the record of a
// single-record Put, the common case, in one object.
type putCommand struct {
	cmd cmdq.Command
	one [1]cmdq.Record
}

// SubmitSnapshot enqueues a snapshot command; the new namespace ID arrives
// in Result.Namespace.
func (d *Device) SubmitSnapshot(nsID uint32) *cmdq.Future {
	d.ctrl.Submission()
	return d.pipe.Submit(&cmdq.Command{Op: cmdq.OpSnapshot, Namespace: nsID})
}

// execCommand dispatches one pipeline command to the firmware and charges
// the completion transfer. It runs on a pipeline worker for direct commands
// and on a coalescer actor for merged batch commits — so a batch that
// carries N coalesced Puts charges one completion for all of them, the
// amortized-CQE half of group commit.
func (d *Device) execCommand(cmd *cmdq.Command) cmdq.Result {
	var res cmdq.Result
	switch cmd.Op {
	case cmdq.OpGet:
		res.Value, res.Err = d.execGet(cmd.Namespace, cmd.Key)
	case cmdq.OpPut, cmdq.OpPutBatch:
		res.Err = d.execPut(cmd.Records, cmd.Merged)
	case cmdq.OpSnapshot:
		res.Namespace, res.Err = d.execSnapshot(cmd.Namespace)
	default:
		res.Err = fmt.Errorf("kamlssd: unsupported pipeline op %v", cmd.Op)
	}
	d.ctrl.Completion()
	return res
}
