// The append path. Every append is a batch: Append is a batch of one,
// and group commit — the hot-path write coalescer of the "reunion"
// claim — is the same call with more payloads. Streaming produces many
// small slice flushes; issuing one placement write per slice pays the
// per-operation device overhead (seek/setup — the fsync-equivalent of
// the simulated substrate) once per slice per copy. AppendBatch writes
// a batch of payloads as ONE placement write per copy sized to the
// whole batch, so the overhead is charged once per batch per copy while
// every payload keeps its own extent and per-copy CRC sidecar — reads,
// scrub, corruption injection, repair and replay digests see exactly
// the extents a payload-at-a-time append would have produced.
package plog

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/pool"
)

// AppendBatch appends payloads back-to-back as one commit: each
// placement copy receives a single pool write covering the batch's
// physical bytes (the sum of the per-payload copy/shard sizes — the
// same byte accounting as appending one at a time, in one operation).
// The placement writes are recorded as parallel pool.write children of
// sp (they share a start offset; the slowest advances the request's
// critical path); a nil span traces nothing and costs nothing. Only a
// commit that actually coalesces (more than one payload) tags its spans
// with the batch size and counts as a group commit.
//
// Degraded-write semantics are batch-granular: a copy that misses the
// coalesced write misses every payload in it and goes stale for the
// repair service; when the surviving copies no longer satisfy the
// policy's fault tolerance the whole batch rolls back all-or-nothing
// and pool accounting is left untouched. The returned offsets are the
// starting offsets of each payload; cost is the slowest parallel
// placement write.
func (l *PLog) AppendBatch(payloads [][]byte, sp *obs.Span) (offsets []int64, cost time.Duration, err error) {
	if len(payloads) == 0 {
		return nil, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil, 0, ErrSealed
	}
	var logical int64
	var phys int64 // per-copy physical bytes: sum of per-payload shard sizes
	for _, p := range payloads {
		logical += int64(len(p))
		phys += l.red.shardSize(int64(len(p)))
	}
	if l.size+logical > l.capacity {
		return nil, 0, ErrFull
	}
	var ok []pool.SliceID
	var failed []int
	var max time.Duration
	for i, s := range l.slices {
		d, werr := l.pool.Write(s.ID, phys)
		if werr != nil {
			failed = append(failed, i)
			continue
		}
		if sp != nil {
			w := sp.Child("pool.write")
			w.SetAttr("disk", strconv.Itoa(int(s.Disk)))
			if len(payloads) > 1 {
				w.SetAttr("batch", strconv.Itoa(len(payloads)))
			}
			w.End(d)
		}
		ok = append(ok, s.ID)
		if d > max {
			max = d
		}
	}
	if len(ok) < l.red.required() {
		// Beyond fault tolerance: all-or-nothing, refund the survivors.
		for _, id := range ok {
			l.pool.RollbackWrite(id, phys)
		}
		return nil, 0, fmt.Errorf("%w: %d of %d placement writes failed",
			ErrUnavailable, len(failed), len(l.slices))
	}
	sp.Advance(max) // the slowest parallel write gates the commit
	offsets = make([]int64, len(payloads))
	for i, p := range payloads {
		// The one copy a payload ever gets: exact-size and owned by its
		// extent from here on (append onto nil skips the zeroing of make).
		offsets[i] = l.size
		l.recordExtent(l.size, append([]byte(nil), p...), failed)
		l.size += int64(len(p))
	}
	l.metrics.appendLat.Observe(max)
	l.metrics.appendBytes.Add(logical)
	if n := int64(len(payloads)); n > 1 {
		l.groupCommits.commits.Add(1)
		l.groupCommits.payloads.Add(n)
		l.groupCommits.saved.Add((n - 1) * int64(len(l.slices)))
	}
	if len(failed) > 0 {
		l.metrics.degradedOps.Inc()
		// Degraded write: some copies now hold stale ranges; drop the
		// log's cached ranges rather than reason about which reads could
		// have observed which copy.
		l.invalidateCached()
	}
	return offsets, max, nil
}

// GroupCommitStats counts the commits AppendBatch actually coalesced
// across a manager's logs: only a batch of more than one payload that
// landed as one write per placement copy counts.
type GroupCommitStats struct {
	Commits           int64 // coalesced device commits issued
	Payloads          int64 // payloads folded into them
	SavedDeviceWrites int64 // placement writes avoided vs one per payload
}

// groupCommitCounts is the manager-wide tally behind GroupCommitStats;
// every log of the manager points at it.
type groupCommitCounts struct {
	commits, payloads, saved atomic.Int64
}

// GroupCommitStats snapshots the manager's coalesced-commit counters.
func (m *Manager) GroupCommitStats() GroupCommitStats {
	return GroupCommitStats{
		Commits:           m.groupCommits.commits.Load(),
		Payloads:          m.groupCommits.payloads.Load(),
		SavedDeviceWrites: m.groupCommits.saved.Load(),
	}
}
