package plog

import (
	"fmt"
	"time"

	"streamlake/internal/compress"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// Migrate moves the log's placement group to dst, reading each copy
// from its current pool and rewriting it on the destination — the
// physical leg of a tiering migration (SSD draining to HDD after the
// demotion window). The per-extent CRC sidecar state moves with the
// data verbatim: checksums are keyed by copy index, not device
// identity, so a corrupt or stale copy stays exactly as corrupt or
// stale on the new pool and a scrub pass in flight keeps finding
// precisely what it would have found — never a false mismatch. The
// log's cached ranges are invalidated (the bytes now live on different
// media). On a destination write failure the destination allocation is
// rolled back and the log stays where it was. Migrating to the current
// pool is a no-op.
//
// Migration is also the compression boundary: extents negotiate a codec
// on the way onto a pool of HDD disks, the cold tier (destination copies
// land at compressed size, the trial-encode CPU is charged to the
// migration once per extent), and decompress on the way to any other
// pool. The checksums are keyed over uncompressed bytes on both sides,
// so the sidecar still moves verbatim.
func (l *PLog) Migrate(dst *pool.Pool) (time.Duration, error) {
	if dst == nil {
		return 0, fmt.Errorf("plog: migrate log %d to nil pool", l.id)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.destroyed {
		// The log was destroyed between enumeration and migration (a
		// reclaim draining the stream while tiering held a stale
		// pointer): its slices are already freed. Migrating would
		// allocate a fresh placement group nothing tracks — a leak —
		// and free already-freed slice ids. Refuse deterministically.
		return 0, fmt.Errorf("plog: migrate log %d: log destroyed", l.id)
	}
	if l.pool == dst {
		return 0, nil
	}
	newSlices, err := dst.AllocGroup(len(l.slices))
	if err != nil {
		return 0, fmt.Errorf("plog: migrate log %d: %w", l.id, err)
	}

	cold := dst.Class() == sim.SASHDD
	compressTo := cold && !l.compressed
	decompressFrom := l.compressed && !cold

	var cost time.Duration
	// dstComp is the codec table the destination copies are sized by.
	dstComp := l.ecomp
	if compressTo {
		// Negotiate a codec per extent against the authoritative bytes.
		// The trial encodes run once per extent regardless of how many
		// copies move — negotiation is a logical transform, the copies
		// just store its output.
		l.imu.Lock()
		dstComp = make([]extComp, len(l.extents))
		for e, ext := range l.extents {
			codec, clen := compress.Negotiate(ext.data)
			dstComp[e] = extComp{codec: codec, clen: clen}
			cost += compress.NegotiateCost(ext.len())
		}
		l.imu.Unlock()
	}
	if decompressFrom {
		// Every compressed extent inflates once before the raw copies
		// are rewritten on the destination.
		l.imu.Lock()
		for e := range l.extents {
			cost += l.decompressCostLocked(e)
		}
		l.imu.Unlock()
		dstComp = nil
	}

	for i, s := range l.slices {
		// Only the extents the copy holds move; stale holes stay holes
		// on the destination (the repair service's job, not the
		// migration's). srcN is what the copy physically stores today,
		// dstN what it will store after the codec transition.
		l.imu.Lock()
		_, srcN, _ := l.copyBytesLocked(i, l.ecomp)
		_, dstN, _ := l.copyBytesLocked(i, dstComp)
		l.imu.Unlock()
		if srcN <= 0 && dstN <= 0 {
			continue
		}
		// Charge the source read when the source disk can serve it; a
		// dead source disk still lands its bytes on the destination, but
		// the reads that rebuild them from the surviving redundancy
		// copies are charged against the surviving disks — moving a
		// degraded log is not free I/O.
		if srcN > 0 {
			if !l.pool.DiskFailed(s.Disk) {
				if c, rerr := l.pool.Read(s.ID, srcN); rerr == nil {
					cost += c
				}
			} else {
				cost += l.reconstructReadLocked(i, srcN)
			}
		}
		if dstN > 0 {
			c, werr := dst.Write(newSlices[i].ID, dstN)
			if werr != nil {
				for _, ns := range newSlices {
					dst.Free(ns.ID)
				}
				return cost, fmt.Errorf("plog: migrate log %d: %w", l.id, werr)
			}
			cost += c
		}
	}
	old, oldPool := l.slices, l.pool
	// Placement-identity writers hold both mu and imu so hook-context
	// readers (corruption injection) can read l.pool/l.slices under imu
	// alone; the compression state commits in the same critical section
	// so no reader ever sees new placement with old codec state.
	l.imu.Lock()
	l.slices = newSlices
	l.pool = dst
	l.unreached = nil // the new copies hold only what the old ones did
	l.compressed = cold
	l.ecomp = dstComp
	l.imu.Unlock()
	for _, s := range old {
		oldPool.Free(s.ID)
	}
	l.invalidateCached()
	return cost, nil
}

// reconstructReadLocked charges the reads that rebuild n bytes of copy
// i from surviving redundancy when its own disk cannot serve them: one
// healthy non-stale peer copy for replication, K healthy shard columns
// read in parallel (the slowest gates) for EC. When the survivors
// cannot cover the rebuild, whatever partial reads were issued stay
// charged and the move still completes — the simulation holds the
// logical bytes authoritatively. Caller holds mu.
func (l *PLog) reconstructReadLocked(i int, n int64) time.Duration {
	need := 1
	if l.red.Kind == ErasureCode {
		need = l.red.K
	}
	var max time.Duration
	found := 0
	for j, o := range l.slices {
		if j == i || l.copyStale(j) || l.pool.DiskFailed(o.Disk) {
			continue
		}
		c, err := l.pool.Read(o.ID, n)
		if err != nil {
			continue
		}
		found++
		if c > max {
			max = c
		}
		if found == need {
			break
		}
	}
	return max
}
