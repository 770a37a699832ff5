// Cold-tier compression state for PLogs (see internal/compress for the
// codecs and the calibrated virtual-CPU cost model). Compression is what
// the HDD tier does to a log that moves onto it: when a log's placement
// group migrates to a pool of HDD disks, each extent is negotiated
// against the real codecs and the destination copies are written at
// compressed size; migrating to any other pool decompresses. The logical
// byte stream (the extents' own bytes) stays authoritative and
// uncompressed — reads always serve raw bytes, the read cache stores
// uncompressed verified bytes, and every CRC-32C stays keyed over
// uncompressed data, so verify-on-read, quarantine, EC reconstruction
// and the scrubber work unchanged on compressed logs. What compression
// changes is accounting: device bytes moved/stored/read shrink to
// compressed sizes, and the codec CPU is charged to the virtual clock.
//
// Locking: l.compressed and l.ecomp follow the placement-identity rule
// (see Migrate): writers hold both mu and imu, so readers may hold
// either. The per-extent helpers below require imu, matching the
// integrity helpers they compose with.
package plog

import (
	"time"

	"streamlake/internal/compress"
)

// extComp is one extent's negotiated compression outcome: the codec and
// the exact on-device byte count of the whole extent under it. Parallel
// to l.extents; an index at or past len(l.ecomp) (an extent appended
// after the compressing migration) is implicitly raw.
type extComp struct {
	codec compress.Codec
	clen  int64
}

// compShardLocked returns the per-copy on-device bytes of extent e under
// the codec table comp (l.ecomp, or the one a migration is about to
// commit): one copy or shard column of its compressed length when comp
// covers it, of its raw length otherwise (an extent appended after the
// compressing migration, or any extent of a raw log). Caller holds imu.
func (l *PLog) compShardLocked(e int, comp []extComp) int64 {
	if e < len(comp) {
		return l.red.shardSize(comp[e].clen)
	}
	return l.red.shardSize(l.extents[e].len())
}

// decompressCostLocked returns the virtual CPU time to decompress
// extent e back to raw bytes (zero for raw/None extents). Caller holds
// imu.
func (l *PLog) decompressCostLocked(e int) time.Duration {
	if !l.compressed || e >= len(l.ecomp) {
		return 0
	}
	return compress.DecompressCost(l.ecomp[e].codec, l.extents[e].len())
}

// compReadLocked sizes a device read of [off, off+n) on a compressed
// log: compressed extents can only be read whole (there is no seeking
// into a DEFLATE stream), so the device bytes are the per-copy physical
// size of every overlapping extent, and the decompress CPU for those
// extents is returned alongside. Caller holds imu.
func (l *PLog) compReadLocked(off, n int64) (devBytes int64, dec time.Duration) {
	lo, hi := l.overlappingLocked(off, n)
	for e := lo; e < hi; e++ {
		devBytes += l.compShardLocked(e, l.ecomp)
		dec += l.decompressCostLocked(e)
	}
	return devBytes, dec
}

// copyBytesLocked walks copy i's checksum sidecar, where an entry for
// extent e means the copy holds e: degraded appends, quarantine and
// stale marking remove entries, repair and a reached node restore them.
// It returns the raw shard bytes of the extents the copy lacks (its
// stale bytes), and the on-device bytes under comp of the extents it
// holds and of those it lacks. Caller holds imu.
func (l *PLog) copyBytesLocked(i int, comp []extComp) (stale, held, missing int64) {
	for e, ext := range l.extents {
		if _, ok := l.copySums[i][e]; ok {
			held += l.compShardLocked(e, comp)
			continue
		}
		stale += l.red.shardSize(ext.len())
		missing += l.compShardLocked(e, comp)
	}
	return stale, held, missing
}

// staleLocked reports whether copy i lacks any extent: its sidecar has
// fewer entries than the log has extents. Caller holds imu.
func (l *PLog) staleLocked(i int) bool {
	return i < len(l.copySums) && len(l.copySums[i]) < len(l.extents)
}

// copyStale is staleLocked taking imu.
func (l *PLog) copyStale(i int) bool {
	l.imu.Lock()
	defer l.imu.Unlock()
	return l.staleLocked(i)
}

// CompressionStats summarizes the cold-tier byte reduction across a
// manager's compressed logs. RawBytes and CompressedBytes are logical
// (single-copy, pre-redundancy) sums, so CompressedBytes/RawBytes is
// the codec-level ratio independent of the redundancy policy.
type CompressionStats struct {
	CompressedLogs  int
	RawBytes        int64 // logical bytes held by compressed logs
	CompressedBytes int64 // those bytes as stored after negotiation
	NoneExtents     int   // extents the bailout kept raw
	RLEExtents      int
	FlateExtents    int
}

// CompressionStats snapshots the manager-wide compression counters in
// log-ID order (deterministic for digests).
func (m *Manager) CompressionStats() CompressionStats {
	var st CompressionStats
	for _, l := range m.sortedLogs() {
		l.mu.RLock()
		if !l.compressed {
			l.mu.RUnlock()
			continue
		}
		st.CompressedLogs++
		l.imu.Lock()
		for e, ext := range l.extents {
			st.RawBytes += ext.len()
			if e < len(l.ecomp) {
				st.CompressedBytes += l.ecomp[e].clen
				switch l.ecomp[e].codec {
				case compress.RLE:
					st.RLEExtents++
				case compress.Flate:
					st.FlateExtents++
				default:
					st.NoneExtents++
				}
			} else {
				st.CompressedBytes += ext.len()
				st.NoneExtents++
			}
		}
		l.imu.Unlock()
		l.mu.RUnlock()
	}
	return st
}
