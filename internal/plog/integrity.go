// Block-checksum integrity layer for PLogs. Every Append records one
// extent, and every placement copy (replica or EC shard column) of that
// extent carries a CRC-32C (Castagnoli) checksum "on disk": for
// replication the checksum of the payload itself, for erasure coding the
// checksum of the copy's shard column produced by a real Reed-Solomon
// encode. Reads verify the copy they serve and transparently fall back
// to a healthy replica — or EC-reconstruct from surviving shards — when
// a stored checksum disagrees with the data, so silent corruption is
// surfaced as a counter and a repair-queue entry, never as wrong bytes.
//
// The simulated substrate keeps the logical bytes once (each extent owns
// its payload's bytes) and models per-copy state separately, so a latent
// bit flip on one copy is modeled as damage to that copy's stored
// checksum: the copy's data and checksum no longer agree with the
// payload the log is known to hold.
// Verification recomputes the CRC from the authoritative bytes (for
// replication and EC data columns; parity columns compare against the
// encode-time value) and compares it with what the copy "stored".
//
// Locking: integrity state lives under its own mutex (imu) so the fault
// injector can flip stored checksums from pool-hook context — which runs
// while mu is held by an in-flight append — without deadlocking. Lock
// order: mu may be held when taking imu, never the reverse, and imu is
// never held across pool I/O.
package plog

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// castagnoli is the CRC-32C table used for every block checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroPad is the padding of an EC data column, for checksumming it
// without materializing the column. A stripe pads k*ceil(len/k) - len < k
// bytes in all (one per column for an empty extent), and k <= 255.
var zeroPad [255]byte

// corruptionMask is XORed into a copy's true checksum to model a latent
// bit flip. Corrupting an already-corrupt copy keeps it corrupt (the
// stored value is derived from the true sum, not flipped back and
// forth).
const corruptionMask uint32 = 0xDEADBEEF

// extent is one appended record: the byte range [off, off+len(data)) of
// the logical stream and the log's only copy of those bytes. data is
// exact-size, capacity-capped and immutable once recorded — nothing
// appended is ever copied, cleared or reallocated again, which is what
// keeps every Read borrow stable. The extent list only grows, under mu
// and imu together, so a reader may hold either lock.
type extent struct {
	off  int64
	data []byte
}

func (e extent) len() int64 { return int64(len(e.data)) }

// IntegrityStats counts checksum activity on a log or across a manager.
type IntegrityStats struct {
	Verifications int64 // extent-copy checksum checks performed
	Mismatches    int64 // checks where the stored checksum disagreed
	FallbackReads int64 // reads served after skipping a corrupt copy
	Injected      int64 // corruption events landed on this log's copies
	Quarantined   int64 // bytes marked stale because of mismatches
}

func (a IntegrityStats) add(b IntegrityStats) IntegrityStats {
	a.Verifications += b.Verifications
	a.Mismatches += b.Mismatches
	a.FallbackReads += b.FallbackReads
	a.Injected += b.Injected
	a.Quarantined += b.Quarantined
	return a
}

// CorruptionEvent describes one injected silent corruption.
type CorruptionEvent struct {
	Log      ID
	SliceIdx int
	Disk     pool.DiskID
	Extent   int
}

func (e CorruptionEvent) String() string {
	return fmt.Sprintf("log %d copy %d (disk %d) extent %d", e.Log, e.SliceIdx, e.Disk, e.Extent)
}

// recordExtent takes ownership of data as the extent at off and computes
// and stores its per-copy checksums. failed lists the placement indices
// whose write was absorbed as a degraded write; those copies get no
// checksum (the bytes never landed) and are caught up by repair.
func (l *PLog) recordExtent(off int64, data []byte, failed []int) {
	width := l.red.Width()
	true_ := make([]uint32, width)
	if l.codec != nil {
		k := l.red.K
		for i := 0; i < k; i++ {
			true_[i] = columnSum(data, k, i)
		}
		l.codec.EncodeParity(data, func(parity [][]byte) {
			for p, row := range parity {
				true_[k+p] = crc32.Update(true_[k+p], castagnoli, row)
			}
		})
	} else {
		sum := crc32.Checksum(data, castagnoli)
		for i := 0; i < width; i++ {
			true_[i] = sum
		}
	}
	missed := make(map[int]bool, len(failed))
	for _, i := range failed {
		missed[i] = true
	}
	l.imu.Lock()
	defer l.imu.Unlock()
	if l.copySums == nil {
		l.copySums = make([]map[int]uint32, width)
		for i := range l.copySums {
			l.copySums[i] = make(map[int]uint32)
		}
	}
	e := len(l.extents)
	l.extents = append(l.extents, extent{off: off, data: data[:len(data):len(data)]})
	l.trueSums = append(l.trueSums, true_)
	for i := 0; i < width; i++ {
		if !missed[i] {
			l.copySums[i][e] = true_[i]
		}
	}
}

// overlappingLocked returns the half-open range [lo, hi) of extent
// indices intersecting [off, off+n). Extents are appended in offset
// order, so the intersecting ones are contiguous. Caller holds mu or imu.
func (l *PLog) overlappingLocked(off, n int64) (lo, hi int) {
	if n <= 0 {
		return 0, 0
	}
	end := off + n
	lo = sort.Search(len(l.extents), func(i int) bool {
		return l.extents[i].off+l.extents[i].len() > off
	})
	hi = lo
	for hi < len(l.extents) && l.extents[hi].off < end {
		hi++
	}
	return lo, hi
}

// expectedSum returns the checksum copy i must hold for extent e. For
// replication and EC data columns it re-runs the real CRC over the
// authoritative bytes; EC parity columns compare against the value
// computed by the encode at append time (re-encoding parity on every
// read would charge no different outcome at GF-math cost). Caller holds
// imu.
func (l *PLog) expectedSumLocked(i, e int) uint32 {
	data := l.extents[e].data
	if l.codec == nil {
		return crc32.Checksum(data, castagnoli)
	}
	if i < l.red.K {
		return columnSum(data, l.red.K, i)
	}
	return l.trueSums[e][i]
}

// columnSum is the CRC-32C of data column i of k as ec.Split lays it
// out: shardLen bytes of data from i*shardLen, zero-padded where data
// runs out. The CRC runs over the bytes in place, then over the padding.
func columnSum(data []byte, k, i int) uint32 {
	shardLen := max((len(data)+k-1)/k, 1)
	start := min(i*shardLen, len(data))
	end := min(start+shardLen, len(data))
	sum := crc32.Update(0, castagnoli, data[start:end])
	return crc32.Update(sum, castagnoli, zeroPad[:shardLen-(end-start)])
}

// verifyCopyRange checks copy i's stored checksums for every extent
// overlapping [off, off+n), returning the extents that failed
// verification. Extents the copy never stored (degraded writes already
// tracked as stale) are skipped. Caller holds mu; imu is taken here.
func (l *PLog) verifyCopyRange(i int, off, n int64) (bad []int) {
	l.imu.Lock()
	defer l.imu.Unlock()
	lo, hi := l.overlappingLocked(off, n)
	for e := lo; e < hi; e++ {
		stored, ok := l.copySums[i][e]
		if !ok {
			continue
		}
		l.integ.Verifications++
		if stored != l.expectedSumLocked(i, e) {
			l.integ.Mismatches++
			bad = append(bad, e)
		}
	}
	return bad
}

// missingIn reports whether copy i lacks any extent overlapping
// [off, off+n) — holes from degraded writes or quarantined corruption.
// A copy that is stale elsewhere can still serve ranges it holds
// intact, so reads check the requested range rather than the whole
// copy.
func (l *PLog) missingIn(i int, off, n int64) bool {
	l.imu.Lock()
	defer l.imu.Unlock()
	if len(l.extents) == 0 {
		return false
	}
	lo, hi := l.overlappingLocked(off, n)
	for e := lo; e < hi; e++ {
		if _, ok := l.copySums[i][e]; !ok {
			return true
		}
	}
	return false
}

// quarantine drops the stored checksums of copy i's corrupt extents:
// the copy is then stale, so the repair service rebuilds them, and one
// corruption is detected (and counted) exactly once. Caller holds mu.
func (l *PLog) quarantine(i int, bad []int) {
	l.imu.Lock()
	quarantined := false
	for _, e := range bad {
		if _, ok := l.copySums[i][e]; !ok {
			continue
		}
		delete(l.copySums[i], e)
		per := l.red.shardSize(l.extents[e].len())
		l.integ.Quarantined += per
		l.metrics.quarantined.Add(per)
		quarantined = true
	}
	l.imu.Unlock()
	if quarantined {
		// Media under this log proved untrustworthy; drop its cached
		// ranges so subsequent reads re-verify against the devices.
		l.invalidateCached()
	}
}

// restoreSums re-establishes copy i's checksums after repair rebuilt the
// copy from healthy peers: every extent the copy was missing now holds
// the true bytes again. Caller holds mu.
func (l *PLog) restoreSums(i int) {
	l.imu.Lock()
	defer l.imu.Unlock()
	if l.copySums == nil {
		return
	}
	for e := range l.extents {
		if _, ok := l.copySums[i][e]; !ok {
			l.copySums[i][e] = l.trueSums[e][i]
		}
	}
}

// CorruptCopy flips the stored checksum of one copy's extent, modeling a
// latent bit flip at rest on that copy. It returns false when the target
// is already corrupt or the copy never stored the extent (stale from a
// degraded write). Safe to call from pool-hook context.
func (l *PLog) CorruptCopy(sliceIdx, ext int) (bool, error) {
	l.imu.Lock()
	defer l.imu.Unlock()
	if sliceIdx < 0 || sliceIdx >= l.red.Width() {
		return false, fmt.Errorf("plog: copy index %d out of range (width %d)", sliceIdx, l.red.Width())
	}
	if ext < 0 || ext >= len(l.extents) {
		return false, fmt.Errorf("plog: extent %d out of range (%d extents)", ext, len(l.extents))
	}
	stored, ok := l.copySums[sliceIdx][ext]
	if !ok {
		return false, nil
	}
	want := l.trueSums[ext][sliceIdx]
	if stored != want {
		return false, nil // already corrupt
	}
	l.copySums[sliceIdx][ext] = want ^ corruptionMask
	l.integ.Injected++
	return true, nil
}

// corruptCandidatesLocked counts the healthy (verifiable, not yet
// corrupt) extent-copies of the log, optionally restricted to copies
// whose slice currently lives on disk d (d < 0 means any disk). pick,
// when in range, corrupts the pick-th candidate and returns its event.
// Caller holds imu.
func (l *PLog) corruptCandidatesLocked(d pool.DiskID, pick int) (int, CorruptionEvent, bool) {
	n := 0
	for i := range l.copySums {
		if d >= 0 {
			if disk, err := l.pool.SliceDisk(l.slices[i].ID); err != nil || disk != d {
				continue
			}
		}
		// Deterministic order: extents ascending.
		for e := 0; e < len(l.extents); e++ {
			stored, ok := l.copySums[i][e]
			if !ok || stored != l.trueSums[e][i] {
				continue
			}
			if n == pick {
				l.copySums[i][e] = l.trueSums[e][i] ^ corruptionMask
				l.integ.Injected++
				disk, _ := l.pool.SliceDisk(l.slices[i].ID)
				return n + 1, CorruptionEvent{Log: l.id, SliceIdx: i, Disk: disk, Extent: e}, true
			}
			n++
		}
	}
	return n, CorruptionEvent{}, false
}

// IntegrityStats snapshots the log's checksum counters.
func (l *PLog) IntegrityStats() IntegrityStats {
	l.imu.Lock()
	defer l.imu.Unlock()
	return l.integ
}

// ScrubResult reports one full checksum verification of a log.
type ScrubResult struct {
	Extents       int           // extent-copies read and verified
	Bytes         int64         // physical bytes read for verification
	Mismatches    int           // corrupt extent-copies found (now quarantined)
	SkippedCopies int           // copies not verifiable (failed disk or already stale)
	Cost          time.Duration // device time charged for verification reads
}

// Scrub reads and verifies every copy of every extent — the whole
// redundancy set, not just a read quorum — charging the verification
// reads to the placement disks. Corrupt copies are quarantined as stale
// for the repair service. Copies on failed disks or already stale are
// skipped; they are the repair service's problem, not the scrubber's.
func (l *PLog) Scrub() ScrubResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res ScrubResult
	l.imu.Lock()
	nExt := len(l.extents)
	l.imu.Unlock()
	for i, s := range l.slices {
		if l.copyStale(i) || l.pool.DiskFailed(s.Disk) || l.pool.DiskAvoided(s.Disk) {
			// Failed/stale copies are the repair service's problem;
			// avoided disks sit on suspect or draining nodes, where a
			// scrub read races the failure detector's verdict.
			res.SkippedCopies++
			continue
		}
		var bad []int
		readFailed := false
		for e := 0; e < nExt; e++ {
			l.imu.Lock()
			stored, ok := l.copySums[i][e]
			// A compressed extent is read at its on-device (compressed)
			// size and must decompress before its CRC — which stays
			// keyed over the uncompressed bytes — can be checked; both
			// collapse to the raw shard size and zero CPU on a raw log.
			per := l.compShardLocked(e, l.ecomp)
			dec := l.decompressCostLocked(e)
			var want uint32
			if ok {
				want = l.expectedSumLocked(i, e)
			}
			l.imu.Unlock()
			if !ok {
				continue
			}
			c, err := l.pool.Read(s.ID, per)
			if err != nil {
				// Transient read fault mid-scrub: leave this copy for the
				// next pass rather than miscounting it as corrupt.
				readFailed = true
				break
			}
			res.Cost += c + dec
			res.Extents++
			res.Bytes += per
			l.imu.Lock()
			l.integ.Verifications++
			l.imu.Unlock()
			if stored != want {
				bad = append(bad, e)
			}
		}
		if readFailed {
			res.SkippedCopies++
			continue
		}
		if len(bad) > 0 {
			l.imu.Lock()
			l.integ.Mismatches += int64(len(bad))
			l.imu.Unlock()
			l.quarantine(i, bad)
			res.Mismatches += len(bad)
		}
	}
	return res
}

// sortedLogs snapshots the live logs ordered by ID.
func (m *Manager) sortedLogs() []*PLog {
	m.mu.Lock()
	out := make([]*PLog, 0, len(m.logs))
	for _, l := range m.logs {
		out = append(out, l)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// CorruptRandom corrupts one uniformly chosen healthy extent-copy across
// all live logs, driven by the caller's seeded RNG. ok is false when
// nothing is corruptible. Safe to call from pool-hook context.
func (m *Manager) CorruptRandom(rng *sim.RNG) (CorruptionEvent, bool) {
	return m.corruptRandom(pool.DiskID(-1), rng)
}

// CorruptRandomOnDisk corrupts one uniformly chosen healthy extent-copy
// currently placed on disk d — the background bit-flip injection target.
func (m *Manager) CorruptRandomOnDisk(d pool.DiskID, rng *sim.RNG) (CorruptionEvent, bool) {
	return m.corruptRandom(d, rng)
}

func (m *Manager) corruptRandom(d pool.DiskID, rng *sim.RNG) (CorruptionEvent, bool) {
	logs := m.sortedLogs()
	total := 0
	counts := make([]int, len(logs))
	for i, l := range logs {
		l.imu.Lock()
		// Disk-scoped corruption means "disk d of this manager's pool":
		// a log migrated to another pool must not alias on the bare
		// numeric disk id. Placement writers hold both mu and imu, so
		// reading l.pool under imu is safe from hook context.
		if d < 0 || l.pool == m.pool {
			counts[i], _, _ = l.corruptCandidatesLocked(d, -1)
		}
		l.imu.Unlock()
		total += counts[i]
	}
	if total == 0 {
		return CorruptionEvent{}, false
	}
	pick := rng.Intn(total)
	for i, l := range logs {
		if pick >= counts[i] {
			pick -= counts[i]
			continue
		}
		l.imu.Lock()
		_, ev, ok := l.corruptCandidatesLocked(d, pick)
		l.imu.Unlock()
		return ev, ok
	}
	return CorruptionEvent{}, false
}

// IntegrityStats sums checksum counters across all live logs.
func (m *Manager) IntegrityStats() IntegrityStats {
	var total IntegrityStats
	for _, l := range m.sortedLogs() {
		total = total.add(l.IntegrityStats())
	}
	return total
}
