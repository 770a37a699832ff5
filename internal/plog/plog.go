// Package plog implements PLog persistence units (Section IV-A, Figure
// 4-e/f). A PLog is an append-only unit of persistence that controls a
// fixed amount of storage space — 128 MB of addresses per logical shard —
// across multiple disks of a storage pool. When a message is received the
// PLog replicates it to multiple disks (or erasure-codes it across them)
// for redundancy. PLogs underlie both stream objects and table objects.
package plog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/cache"
	"streamlake/internal/ec"
	"streamlake/internal/obs"
	"streamlake/internal/pool"
	"streamlake/internal/resil"
)

// DefaultCapacity is the paper's fixed PLog address space: 128 MB.
const DefaultCapacity int64 = 128 << 20

// RedundancyKind selects between full-copy replication and erasure
// coding, the two data redundancy methods the stream object's CREATE
// options expose (Figure 3).
type RedundancyKind int

const (
	// Replicate stores Replicas full copies on distinct disks.
	Replicate RedundancyKind = iota
	// ErasureCode stores K data + M parity shards on distinct disks.
	ErasureCode
)

// Redundancy describes a PLog's redundancy policy.
type Redundancy struct {
	Kind     RedundancyKind
	Replicas int // total copies for Replicate (>= 1)
	K, M     int // shards for ErasureCode
}

// ReplicateN builds an n-copy replication policy.
func ReplicateN(n int) Redundancy { return Redundancy{Kind: Replicate, Replicas: n} }

// EC builds a k+m erasure-coding policy.
func EC(k, m int) Redundancy { return Redundancy{Kind: ErasureCode, K: k, M: m} }

// Width returns the number of distinct disks the policy spans.
func (r Redundancy) Width() int {
	if r.Kind == Replicate {
		return r.Replicas
	}
	return r.K + r.M
}

// Overhead returns the physical-to-logical byte multiplier: Replicas for
// replication, (K+M)/K for erasure coding. This ratio is the whole story
// of Figure 14(d).
func (r Redundancy) Overhead() float64 {
	if r.Kind == Replicate {
		return float64(r.Replicas)
	}
	return float64(r.K+r.M) / float64(r.K)
}

func (r Redundancy) validate() error {
	switch r.Kind {
	case Replicate:
		if r.Replicas < 1 {
			return fmt.Errorf("plog: replication needs >= 1 copy, got %d", r.Replicas)
		}
	case ErasureCode:
		if r.K < 1 || r.M < 0 || r.K+r.M > 255 {
			return fmt.Errorf("plog: invalid EC parameters k=%d m=%d", r.K, r.M)
		}
	default:
		return fmt.Errorf("plog: unknown redundancy kind %d", r.Kind)
	}
	return nil
}

// ID identifies a PLog within its manager.
type ID int64

// Errors returned by PLog operations.
var (
	ErrSealed      = errors.New("plog: log is sealed")
	ErrFull        = errors.New("plog: append exceeds log capacity")
	ErrOutOfRange  = errors.New("plog: read out of range")
	ErrUnavailable = errors.New("plog: too many placement disks failed")
	// ErrCorrupt marks a checksum mismatch on a copy; reads fall back to
	// healthy copies and only surface it when no copy survives.
	ErrCorrupt = errors.New("plog: checksum mismatch")
)

// PLog is one append-only persistence unit. The logical byte stream is
// retained in memory (the simulated substrate's stand-in for the disk
// medium) as the log's extents, each owning the bytes of one appended
// payload (see integrity.go): a byte is copied in once and never moved.
// Redundancy is charged to the placement disks so space and time
// accounting match the policy.
type PLog struct {
	id       ID
	capacity int64
	red      Redundancy
	pool     *pool.Pool
	codec    *ec.Codec // nil for replication

	mu     sync.RWMutex
	slices []*pool.Slice
	size   int64 // logical bytes appended: the sum of the extents' lengths
	sealed bool
	// destroyed is set by Manager.Destroy under mu. A destroyed log's
	// slices have been freed; late operations that raced the destroy
	// (a tiering migrate holding a stale pointer, a straggler append)
	// must fail deterministically instead of touching freed slices.
	destroyed bool
	// unreached keeps the checksum sidecar of each copy its node's death
	// verdict staled, for Manager.Reached; relocating or rebuilding the
	// slice forgets it.
	unreached map[int]map[int]uint32

	// Integrity state (see integrity.go). Guarded by imu, not mu, so the
	// fault injector can corrupt copies from pool-hook context; never
	// hold imu while doing pool I/O. copySums is also the one record of
	// what each copy holds: a copy whose sidecar lacks an extent is stale,
	// never serves that range, and is the repair service's work queue.
	imu      sync.Mutex
	extents  []extent
	trueSums [][]uint32       // [extent][copy] expected checksums
	copySums []map[int]uint32 // per copy: extent index -> stored checksum
	integ    IntegrityStats

	// metrics points at the manager's shared instrument set. The pointer
	// is always valid for manager-created logs; the instruments inside
	// stay nil (no-op) until Manager.SetObs wires a registry.
	metrics *logMetrics

	// hedge points at the manager's shared hedged-read state (see
	// hedge.go); nil disables hedging entirely.
	hedge *hedgeState

	// groupCommits points at the manager's coalesced-commit tally (see
	// AppendBatch).
	groupCommits *groupCommitCounts

	// rcache points at the manager's shared read-cache slot (same
	// lifetime trick as metrics); the slot holds nil until SetCache.
	// Fills are inserted only after checksum verification, and every
	// coherence edge — quarantine, repair rewrite, degraded append,
	// migration, destroy — invalidates the log's cached ranges.
	rcache *atomic.Pointer[cache.Cache]

	// compressed/ecomp are the log's compression state (see
	// compress.go) and follow the placement-identity rule: writers
	// (Migrate) hold both mu and imu, readers may hold either.
	compressed bool
	ecomp      []extComp

	// fmu guards the cache-fill version: invalidateCached bumps fillVer
	// under it, and fills snapshot the version before their device read
	// and re-check it at insert time, so a fill racing an invalidation
	// (migrate, quarantine, repair) can never re-admit bytes keyed to
	// the pre-invalidation placement. Leaf lock: mu may be held when
	// taking fmu, never the reverse.
	fmu     sync.Mutex
	fillVer uint64
}

// logMetrics is the plog layer's obs instrument set, shared by every
// log of one manager. Fields are wired once by Manager.SetObs before
// the manager serves traffic; each is a nil-safe no-op until then.
type logMetrics struct {
	appendLat      *obs.Histogram // persistence latency per append
	readLat        *obs.Histogram
	reconstructLat *obs.Histogram // repair/rebuild device time
	appendBytes    *obs.Counter
	readBytes      *obs.Counter
	degradedOps    *obs.Counter // appends that left stale copies behind
	quarantined    *obs.Counter // bytes quarantined on checksum mismatch
	repairedBytes  *obs.Counter
}

// ID returns the log's identifier.
func (l *PLog) ID() ID { return l.id }

// Size returns the logical bytes appended so far.
func (l *PLog) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.size
}

// Sealed reports whether the log has been sealed.
func (l *PLog) Sealed() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sealed
}

// shardSize returns the per-disk physical size of n logical bytes under
// the policy: the full payload for replication, one shard column for EC.
func (r Redundancy) shardSize(n int64) int64 {
	if r.Kind == ErasureCode {
		return (n + int64(r.K) - 1) / int64(r.K)
	}
	return n
}

// required returns how many placement writes must succeed for an append
// to be durable under the policy: one full copy for replication, K
// shards for erasure coding (failures beyond that exceed FaultTolerance).
func (r Redundancy) required() int {
	if r.Kind == ErasureCode {
		return r.K
	}
	return 1
}

// Append writes data at the end of the log, charging the redundant
// physical writes to the placement disks. It returns the starting offset
// and the modelled persistence latency (the slowest parallel device
// write, as replicas are written concurrently).
//
// Append degrades rather than fails: as long as the surviving placement
// disks still satisfy the policy's FaultTolerance, the append succeeds
// and the missed copies/shards are recorded as stale for the repair
// service. Only when too many placement writes fail does Append return
// ErrUnavailable — and then it rolls back the charges of the writes that
// did land, so a failed append leaves pool byte and latency accounting
// untouched.
func (l *PLog) Append(data []byte) (offset int64, cost time.Duration, err error) {
	offs, cost, err := l.AppendBatch([][]byte{data}, nil)
	if err != nil {
		return 0, 0, err
	}
	return offs[0], cost, nil
}

// Read returns n bytes starting at offset, charging the device reads. For
// replication it reads one healthy copy; for erasure coding it reads K
// healthy shards in parallel (cost is the slowest). Every copy served is
// checksum-verified: a mismatch quarantines that copy as stale for the
// repair service and the read transparently falls back to the next
// replica or reconstructs from surviving shards. When placement disks have failed, fallen stale, or
// been found corrupt it degrades the same way, and returns
// ErrUnavailable only when the policy's fault tolerance is exceeded —
// corrupt bytes are never returned.
//
// Borrow discipline: a range inside one appended payload — every
// data-path read: a payload is the unit shard.Loc and FileStore address
// — returns a read-only, capacity-capped borrow of that extent's bytes
// (or of a shared cache entry); callers MUST NOT mutate it. An extent's
// bytes are never moved or rewritten once appended, so the borrow stays
// valid and stable forever, even across concurrent appends, seals and
// migrations; verified extent bytes flow to the gateway and query scan
// with zero intermediate copies. A range spanning payloads is gathered
// into a fresh copy (which a read cache may then share). A caller that
// needs a private, mutable buffer copies either kind.
func (l *PLog) Read(offset, n int64) (data []byte, cost time.Duration, err error) {
	data, cost, _, err = l.readThrough(offset, n)
	return data, cost, err
}

// readThrough is the cache-aware read path: a resident range is served
// from the read cache (a DRAM hit at zero cost, an SCM hit at SCM
// device cost); a miss goes to the devices and the verified bytes fill
// the cache. hit reports whether the cache served the read.
func (l *PLog) readThrough(offset, n int64) (data []byte, cost time.Duration, hit bool, err error) {
	c := l.cacheActive()
	if c == nil || n <= 0 {
		data, cost, err = l.read(offset, n)
		if err == nil {
			l.metrics.readLat.Observe(cost)
			l.metrics.readBytes.Add(n)
		}
		return data, cost, false, err
	}
	key := l.cacheKey(offset, n)
	if data, ccost, ok := c.Get(key); ok {
		l.metrics.readLat.Observe(ccost)
		l.metrics.readBytes.Add(n)
		return data, ccost, true, nil
	}
	ver := l.fillVersion()
	data, cost, err = l.read(offset, n)
	if err == nil {
		l.metrics.readLat.Observe(cost)
		l.metrics.readBytes.Add(n)
		// Verified fill: l.read only returns clean bytes. The fill is
		// version-guarded: if an invalidation (a migrate moving
		// the placement, a quarantine, a repair rewrite) ran between the
		// device read and here, the fill loses — inserting would
		// re-admit bytes keyed to the pre-invalidation placement.
		l.tryFill(c, key, data, ver)
	}
	return data, cost, false, err
}

// fillVersion snapshots the log's cache-fill version. A fill is only
// admitted if the version is unchanged at insert time (see tryFill).
func (l *PLog) fillVersion() uint64 {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.fillVer
}

// tryFill inserts a verified fill unless an invalidation has run since
// the caller snapshotted ver — the check and the insert are atomic with
// respect to invalidateCached, so a pre-invalidation fill can never
// land after the invalidation's prefix sweep.
func (l *PLog) tryFill(c *cache.Cache, key string, data []byte, ver uint64) bool {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.fillVer != ver {
		return false
	}
	c.Put(key, data)
	return true
}

// ReadDirect is Read bypassing the read cache: the raw device path,
// metrics-free. The chaos harness compares it against cached reads to
// enforce the "cached read never differs from device read" invariant.
func (l *PLog) ReadDirect(offset, n int64) ([]byte, time.Duration, error) {
	return l.read(offset, n)
}

// cacheActive returns the attached read cache, or nil when there is
// none.
func (l *PLog) cacheActive() *cache.Cache {
	if l.rcache == nil {
		return nil
	}
	return l.rcache.Load()
}

func (l *PLog) cachePrefix() string {
	return "plog/" + strconv.FormatInt(int64(l.id), 10) + "/"
}

func (l *PLog) cacheKey(offset, n int64) string {
	return l.cachePrefix() + strconv.FormatInt(offset, 10) + "/" + strconv.FormatInt(n, 10)
}

// invalidateCached drops every cached range of this log. The logical
// bytes are append-only and immutable, so cached entries can never go
// stale in content — invalidation models device-state honesty on the
// coherence edges where the media under the log changed (quarantine,
// repair rewrite, degraded append, migration, destroy).
func (l *PLog) invalidateCached() {
	// Bump the fill version first: any in-flight fill that snapshotted
	// the old version aborts at insert time, and one that already landed
	// is swept by the prefix invalidation below. Either order of the
	// race leaves the cache empty of pre-invalidation entries.
	l.fmu.Lock()
	l.fillVer++
	l.fmu.Unlock()
	if l.rcache == nil {
		return
	}
	if c := l.rcache.Load(); c != nil {
		c.InvalidatePrefix(l.cachePrefix())
	}
}

// ReadCtx is Read under a resilience context: the virtual-time deadline
// is checked before any device work starts and the read's cost is
// charged to rc afterwards. A read whose cost pushes the request past
// its deadline returns the data it fetched together with
// resil.ErrDeadlineExceeded; the caller decides whether a late result
// is still useful. A nil rc makes ReadCtx identical to Read. The read
// is annotated on sp, the caller's plog.read span: its bytes and
// whether the read cache or the devices served it (src). A nil span
// traces nothing.
func (l *PLog) ReadCtx(offset, n int64, rc *resil.Ctx, sp *obs.Span) (data []byte, cost time.Duration, err error) {
	if err := rc.Check(); err != nil {
		return nil, 0, err
	}
	data, cost, hit, err := l.readThrough(offset, n)
	if sp != nil {
		sp.SetAttr("bytes", strconv.FormatInt(n, 10))
		sp.SetAttr("src", "device")
		if hit {
			sp.SetAttr("src", "cache")
		}
	}
	if err != nil {
		return data, cost, err
	}
	return data, cost, rc.Charge(cost)
}

func (l *PLog) read(offset, n int64) (data []byte, cost time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset < 0 || n < 0 || offset+n > l.size {
		return nil, 0, ErrOutOfRange
	}
	// Compressed logs read whole extents at their compressed size and
	// pay the decompress CPU before the uncompressed bytes can be
	// CRC-verified — so a corrupt copy costs its read and its decompress
	// before the fallback, exactly like the wasted raw reads below. On a
	// raw log devN == n and decCost == 0, leaving the legacy accounting
	// byte-identical.
	devN, decCost := n, time.Duration(0)
	if l.compressed {
		l.imu.Lock()
		devN, decCost = l.compReadLocked(offset, n)
		l.imu.Unlock()
	}
	switch l.red.Kind {
	case Replicate:
		var lastErr error
		fellBack := false
		for i, s := range l.slices {
			if l.missingIn(i, offset, n) {
				continue // copy has holes here: degraded write or quarantined
			}
			d, rerr := l.pool.Read(s.ID, devN)
			if rerr != nil {
				lastErr = rerr
				continue
			}
			d += decCost
			cost += d // wasted reads of corrupt copies stay charged
			if bad := l.verifyCopyRange(i, offset, n); len(bad) > 0 {
				l.quarantine(i, bad)
				lastErr = fmt.Errorf("%w on copy %d", ErrCorrupt, i)
				fellBack = true
				continue
			}
			if fellBack {
				l.imu.Lock()
				l.integ.FallbackReads++
				l.imu.Unlock()
			}
			// Slow primary? Race a second replica after the hedge delay and
			// let the requester observe the earlier finisher. Device time of
			// both reads stays charged above.
			if saved := l.hedgeLocked(i, offset, n, devN, decCost, d); saved > 0 {
				cost -= saved
			}
			return l.bytesLocked(offset, n), cost, nil
		}
		if lastErr == nil {
			lastErr = errors.New("all replicas stale")
		}
		return nil, 0, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
	case ErasureCode:
		shard := (n + int64(l.red.K) - 1) / int64(l.red.K)
		if l.compressed {
			// Whole overlapping extents, one compressed shard column per
			// copy (compReadLocked already divided by K).
			shard = devN
		}
		var max time.Duration
		healthy := 0
		fellBack := false
		for i, s := range l.slices {
			if healthy == l.red.K {
				break
			}
			if l.missingIn(i, offset, n) {
				continue // shard has holes here: degraded write or quarantined
			}
			d, rerr := l.pool.Read(s.ID, shard)
			if rerr != nil {
				continue // failed disk; try the next shard (degraded read)
			}
			if bad := l.verifyCopyRange(i, offset, n); len(bad) > 0 {
				l.quarantine(i, bad)
				fellBack = true
				cost += d // wasted read of the corrupt shard
				continue
			}
			healthy++
			if d > max {
				max = d
			}
		}
		// The K shard columns join, then the extents decompress once
		// (zero on a raw log).
		cost += max + decCost
		if healthy < l.red.K {
			return nil, 0, ErrUnavailable
		}
		if fellBack {
			l.imu.Lock()
			l.integ.FallbackReads++
			l.imu.Unlock()
		}
		return l.bytesLocked(offset, n), cost, nil
	}
	return nil, 0, fmt.Errorf("plog: unknown redundancy kind %d", l.red.Kind)
}

// bytesLocked returns the logical bytes [off, off+n), which the caller
// has bounds-checked. A range inside one extent is a zero-copy,
// capacity-capped borrow of that extent's immutable bytes; a range
// spanning extents is gathered into a private copy. Caller holds mu.
func (l *PLog) bytesLocked(off, n int64) []byte {
	lo, hi := l.overlappingLocked(off, n)
	if hi-lo == 1 {
		from := off - l.extents[lo].off
		return l.extents[lo].data[from : from+n : from+n]
	}
	out := make([]byte, 0, n)
	for _, ext := range l.extents[lo:hi] {
		out = append(out, ext.data[max(off-ext.off, 0):min(off+n-ext.off, ext.len())]...)
	}
	return out
}

// verifyReconstructLocked exercises the actual erasure decode on the
// stripes the log stores — one per extent, as recordExtent encoded and
// checksummed them: it re-encodes each extent, erases the `erasures`
// columns, reconstructs, and checks every column against its sidecar
// CRC and the joined payload against the extent, so repair exercises
// real decoding of the parity the sidecars describe, not just
// accounting. Caller holds mu.
func (l *PLog) verifyReconstructLocked(erasures []int) error {
	if l.red.Kind != ErasureCode {
		return errors.New("plog: erasure reconstruct on a replicated log")
	}
	for _, i := range erasures {
		if i < 0 || i >= l.red.Width() {
			return fmt.Errorf("plog: erasure index %d out of range", i)
		}
	}
	// extents and trueSums only grow, under mu and imu together, so mu
	// alone covers reading them. Split and Encode alias the extent and
	// Reconstruct only fills the erased entries: the log's bytes are read,
	// never written.
	for e, ext := range l.extents {
		stripe, err := l.codec.Encode(l.codec.Split(ext.data))
		if err != nil {
			return err
		}
		for _, i := range erasures {
			stripe[i] = nil
		}
		if err := l.codec.Reconstruct(stripe); err != nil {
			return err
		}
		for i, col := range stripe {
			if crc32.Checksum(col, castagnoli) != l.trueSums[e][i] {
				return fmt.Errorf("plog: reconstructed column %d of extent %d fails its checksum", i, e)
			}
		}
		got, err := l.codec.Join(stripe, len(ext.data))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, ext.data) {
			return fmt.Errorf("plog: reconstruction mismatch in extent %d", e)
		}
	}
	return nil
}

// Placement snapshots the log's placement slices in index order, for
// tests and diagnostics that target a specific copy.
func (l *PLog) Placement() []*pool.Slice {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]*pool.Slice(nil), l.slices...)
}

// StaleInfo describes one stale placement slice awaiting repair.
type StaleInfo struct {
	Log      ID
	SliceIdx int
	Disk     pool.DiskID
	Bytes    int64 // raw shard bytes of the extents the copy lacks
}

// Stale snapshots the log's stale placement slices, ordered by slice
// index.
func (l *PLog) Stale() []StaleInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.imu.Lock()
	defer l.imu.Unlock()
	var out []StaleInfo
	for i, s := range l.slices {
		if l.staleLocked(i) {
			b, _, _ := l.copyBytesLocked(i, l.ecomp)
			out = append(out, StaleInfo{Log: l.id, SliceIdx: i, Disk: s.Disk, Bytes: b})
		}
	}
	return out
}

// StaleBytes sums the bytes missing across the log's stale slices.
func (l *PLog) StaleBytes() int64 {
	var total int64
	for _, si := range l.Stale() {
		total += si.Bytes
	}
	return total
}

// markStale records every placement copy of this log on the given disks
// of p as fully stale: its checksums are dropped (remembered with keep),
// so it serves no reads, and RepairStale rebuilds it from its peers. Only
// logs still placed on p match, as disk IDs alias across pools. Returns
// the stale bytes newly recorded.
func (l *PLog) markStale(p *pool.Pool, disks map[pool.DiskID]bool, keep bool) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.destroyed || l.pool != p {
		return 0
	}
	var added int64
	marked := false
	l.imu.Lock()
	for i, s := range l.slices {
		if !disks[s.Disk] || i >= len(l.copySums) || len(l.copySums[i]) == 0 {
			continue
		}
		before, _, _ := l.copyBytesLocked(i, l.ecomp)
		if _, held := l.unreached[i]; keep && !held {
			if l.unreached == nil {
				l.unreached = make(map[int]map[int]uint32)
			}
			l.unreached[i] = l.copySums[i]
		}
		l.copySums[i] = make(map[int]uint32)
		after, _, _ := l.copyBytesLocked(i, l.ecomp)
		added += after - before
		marked = true
	}
	l.imu.Unlock()
	if marked {
		l.invalidateCached()
	}
	return added
}

// reached restores the copies on the given disks of p that markStale
// kept and nothing moved since; only the appends they missed stay stale.
// Returns the stale bytes cleared.
func (l *PLog) reached(p *pool.Pool, disks map[pool.DiskID]bool) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.destroyed || l.pool != p {
		return 0
	}
	var cleared int64
	l.imu.Lock()
	for i, sums := range l.unreached {
		if s := l.slices[i]; !disks[s.Disk] || p.DiskFailed(s.Disk) {
			continue
		}
		delete(l.unreached, i)
		before, _, _ := l.copyBytesLocked(i, l.ecomp)
		for e, sum := range sums {
			l.copySums[i][e] = sum
		}
		after, _, _ := l.copyBytesLocked(i, l.ecomp)
		cleared += before - after
	}
	l.imu.Unlock()
	if cleared > 0 {
		l.invalidateCached()
	}
	return cleared
}

// FullyRedundant reports whether every placement slice holds its full
// copy/shard — the repair service's success condition.
func (l *PLog) FullyRedundant() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.imu.Lock()
	defer l.imu.Unlock()
	for i := range l.slices {
		if l.staleLocked(i) {
			return false
		}
	}
	return true
}

// RepairStale restores redundancy on the log's stale slices. A stale
// slice whose disk recovered is caught up in place (only the missing
// bytes are rewritten); a slice stranded on a dead disk is relocated to
// a healthy disk and rebuilt in full — the whole copy for replication,
// one shard column for EC, read from the surviving peers. Erasure-coded
// rebuilds run the real decoder over the log's contents so repair
// exercises actual reconstruction, not just accounting. It returns the
// stale bytes cleared and the modelled reconstruction I/O; on error
// (no healthy target disk, injected fault mid-repair) the remaining
// slices stay stale for the caller to retry.
func (l *PLog) RepairStale() (repaired int64, cost time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var idxs []int
	l.imu.Lock()
	for i := range l.slices {
		if l.staleLocked(i) {
			idxs = append(idxs, i)
		}
	}
	l.imu.Unlock()
	if len(idxs) == 0 {
		return 0, 0, nil
	}
	if l.codec != nil && len(idxs) <= l.red.M {
		// Exercise the real erasure decode: erase every stale column and
		// reconstruct the payload before charging any rebuild I/O.
		if derr := l.verifyReconstructLocked(idxs); derr != nil {
			return 0, 0, fmt.Errorf("plog: repair decode: %w", derr)
		}
	}
	need := l.red.required()
	for _, i := range idxs {
		// The copy's sidecar says what it lacks: those extents are
		// rebuilt at their on-device (compressed) size, and the rebuilt
		// copy holds them all.
		l.imu.Lock()
		staleBytes, held, missing := l.copyBytesLocked(i, l.ecomp)
		l.imu.Unlock()
		rebuild := missing
		s := l.slices[i]
		if l.pool.DiskFailed(s.Disk) {
			// Dead disk: move the slice, then rebuild the entire column.
			exclude := make(map[pool.DiskID]bool, len(l.slices)-1)
			for j, o := range l.slices {
				if j != i {
					exclude[o.Disk] = true
				}
			}
			if _, rerr := l.pool.Relocate(s.ID, exclude); rerr != nil {
				return repaired, cost, fmt.Errorf("plog: relocate slice %d of log %d: %w", i, l.id, rerr)
			}
			delete(l.unreached, i)
			rebuild = held + missing
		}
		// Reconstruction sources: healthy, non-stale peers — one for
		// replication, K for EC. Prefer sources on trusted disks; only
		// when those cannot cover the rebuild fall back to avoided
		// (suspect/draining-node) disks, which still hold good bytes but
		// may vanish mid-repair.
		sources := make([]pool.SliceID, 0, need)
		var fallback []pool.SliceID
		l.imu.Lock()
		for j, o := range l.slices {
			if j == i || l.staleLocked(j) || l.pool.DiskFailed(o.Disk) {
				continue
			}
			if l.pool.DiskAvoided(o.Disk) {
				fallback = append(fallback, o.ID)
				continue
			}
			sources = append(sources, o.ID)
			if len(sources) == need {
				break
			}
		}
		l.imu.Unlock()
		for _, id := range fallback {
			if len(sources) == need {
				break
			}
			sources = append(sources, id)
		}
		if len(sources) < need {
			return repaired, cost, fmt.Errorf("%w: %d of %d reconstruction sources available",
				ErrUnavailable, len(sources), need)
		}
		c, rerr := l.pool.RepairSlice(s.ID, sources, rebuild, held+missing)
		if rerr != nil {
			return repaired, cost, fmt.Errorf("plog: rebuild slice %d of log %d: %w", i, l.id, rerr)
		}
		cost += c
		repaired += staleBytes
		delete(l.unreached, i)
		// The copy holds true bytes again; its checksums verify anew.
		l.restoreSums(i)
	}
	if repaired > 0 {
		l.metrics.reconstructLat.Observe(cost)
		l.metrics.repairedBytes.Add(repaired)
		// Repair rewrote device copies under the cache; invalidate the
		// log's cached ranges so they refill from the repaired media.
		l.invalidateCached()
	}
	return repaired, cost, nil
}

// Seal makes the log immutable. Sealed logs are what the tiering service
// migrates and the stream-to-table converter drains.
func (l *PLog) Seal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealed = true
}

// PhysicalBytes reports the redundant bytes this log occupies on disk
// with every copy whole: each extent's on-device copy or shard column
// (compressed on the cold tier), times the width.
func (l *PLog) PhysicalBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.imu.Lock()
	defer l.imu.Unlock()
	_, held, missing := l.copyBytesLocked(0, l.ecomp)
	return (held + missing) * int64(l.red.Width())
}

// Manager creates and tracks PLogs over one storage pool.
type Manager struct {
	pool     *pool.Pool
	capacity int64
	// metrics is shared by every log the manager creates (see
	// PLog.metrics); zero until SetObs wires a registry.
	metrics logMetrics
	// hedge is the shared hedged-read state (see hedge.go); hedging
	// stays off until SetHedge enables it, but the latency tracker warms
	// from the first read.
	hedge hedgeState
	// groupCommits tallies the coalesced AppendBatch commits of every
	// log (see GroupCommitStats).
	groupCommits groupCommitCounts
	// cache is the shared read-cache slot every log points at; nil
	// until SetCache attaches one.
	cache atomic.Pointer[cache.Cache]
	// placer allocates each new log's placement group: the pool's own
	// AllocGroup until SetPlacer installs the cluster's consistent-hash
	// placement.
	placer atomic.Pointer[func(width int) ([]*pool.Slice, error)]

	mu     sync.Mutex
	logs   map[ID]*PLog
	nextID ID
}

// SetPlacer installs the placement-group allocator Create consults in
// place of pool.AllocGroup. The cluster layer uses it to route each new
// log's placement group through the consistent-hash ring so groups
// spread across node failure domains.
func (m *Manager) SetPlacer(f func(width int) ([]*pool.Slice, error)) { m.placer.Store(&f) }

// SetCache attaches a two-tier read cache shared by every log of the
// manager (nil detaches it). Extent reads fill the cache only after
// checksum verification, and the coherence edges (quarantine, repair,
// degraded appends, migration, destroy) invalidate affected ranges.
func (m *Manager) SetCache(c *cache.Cache) { m.cache.Store(c) }

// SetObs registers the plog layer's telemetry: latency histograms and
// byte counters shared across the manager's logs, plus redundancy and
// footprint gauges evaluated at scrape time. Call before the manager
// serves traffic; a nil registry leaves the layer unobserved.
func (m *Manager) SetObs(reg *obs.Registry) {
	m.metrics = logMetrics{
		appendLat:      reg.Histogram("plog_append_seconds"),
		readLat:        reg.Histogram("plog_read_seconds"),
		reconstructLat: reg.Histogram("plog_reconstruct_seconds"),
		appendBytes:    reg.Counter("plog_append_bytes_total"),
		readBytes:      reg.Counter("plog_read_bytes_total"),
		degradedOps:    reg.Counter("plog_degraded_appends_total"),
		quarantined:    reg.Counter("plog_quarantined_bytes_total"),
		repairedBytes:  reg.Counter("plog_repaired_bytes_total"),
	}
	if reg == nil {
		return
	}
	reg.GaugeFunc("plog_logs", func() float64 { return float64(m.Count()) })
	reg.GaugeFunc("plog_degraded_logs", func() float64 { return float64(m.DegradedCount()) })
	reg.GaugeFunc("plog_stale_bytes", func() float64 { return float64(m.StaleBytes()) })
	reg.GaugeFunc("plog_logical_bytes", func() float64 { return float64(m.LogicalBytes()) })
	reg.GaugeFunc("plog_physical_bytes", func() float64 { return float64(m.PhysicalBytes()) })
	reg.CounterFunc("plog_hedged_reads_total", func() int64 { return m.HedgeStats().Hedged })
	reg.CounterFunc("plog_hedge_wins_total", func() int64 { return m.HedgeStats().Wins })
	reg.CounterFunc("plog_group_commits_total", func() int64 { return m.GroupCommitStats().Commits })
	reg.CounterFunc("plog_group_commit_payloads_total", func() int64 { return m.GroupCommitStats().Payloads })
}

// NewManager builds a manager creating logs of the given capacity (0
// means DefaultCapacity) on p.
func NewManager(p *pool.Pool, capacity int64) *Manager {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	m := &Manager{pool: p, capacity: capacity, logs: make(map[ID]*PLog)}
	m.SetPlacer(p.AllocGroup)
	return m
}

// Create allocates a new PLog with the given redundancy policy: a
// placement group of Width() slices on distinct disks.
func (m *Manager) Create(red Redundancy) (*PLog, error) {
	if err := red.validate(); err != nil {
		return nil, err
	}
	slices, err := (*m.placer.Load())(red.Width())
	if err != nil {
		return nil, err
	}
	var codec *ec.Codec
	if red.Kind == ErasureCode {
		codec, err = ec.New(red.K, red.M)
		if err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	l := &PLog{
		id:           m.nextID,
		capacity:     m.capacity,
		red:          red,
		pool:         m.pool,
		codec:        codec,
		slices:       slices,
		metrics:      &m.metrics,
		hedge:        &m.hedge,
		groupCommits: &m.groupCommits,
		rcache:       &m.cache,
	}
	m.logs[l.id] = l
	return l, nil
}

// Get returns the log with the given id, or nil.
func (m *Manager) Get(id ID) *PLog {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logs[id]
}

// Destroy releases a log's slices and forgets it.
func (m *Manager) Destroy(id ID) error {
	m.mu.Lock()
	l, ok := m.logs[id]
	if ok {
		delete(m.logs, id)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("plog: no log %d", id)
	}
	// Free from the log's own pool, not the manager's: a tiering
	// migration may have moved the placement group to another pool,
	// whose slice ids the manager's pool knows nothing about. Sealing
	// and marking the log destroyed under the same critical section
	// makes every operation that raced the destroy deterministic: late
	// appends see ErrSealed (and the shard space rolls a fresh log), a
	// tiering migrate holding a stale pointer refuses to run instead of
	// re-homing freed slices onto a new pool and leaking them.
	l.mu.Lock()
	l.sealed = true
	l.destroyed = true
	slices, lp := l.slices, l.pool
	l.mu.Unlock()
	for _, s := range slices {
		if err := lp.Free(s.ID); err != nil {
			return err
		}
	}
	l.invalidateCached()
	return nil
}

// Count returns the number of live logs.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.logs)
}

// PhysicalBytes sums the physical footprint of all live logs.
func (m *Manager) PhysicalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, l := range m.logs {
		total += l.PhysicalBytes()
	}
	return total
}

// LogInfo describes one live log for enumeration (tiering, diagnostics).
type LogInfo struct {
	ID     ID
	Size   int64
	Sealed bool
	Stale  int64      // bytes missing across stale placement slices
	Pool   *pool.Pool // the pool its placement group lives on
}

// Logs snapshots all live logs.
func (m *Manager) Logs() []LogInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LogInfo, 0, len(m.logs))
	for _, l := range m.logs {
		l.mu.RLock()
		p := l.pool
		l.mu.RUnlock()
		out = append(out, LogInfo{ID: l.ID(), Size: l.Size(), Sealed: l.Sealed(), Stale: l.StaleBytes(), Pool: p})
	}
	return out
}

// StaleLogs returns the logs that are not fully redundant, ordered by ID
// — the repair service's deterministic work queue.
func (m *Manager) StaleLogs() []*PLog {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*PLog
	for _, l := range m.logs {
		if !l.FullyRedundant() {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// DegradedCount reports how many live logs have stale slices.
func (m *Manager) DegradedCount() int { return len(m.StaleLogs()) }

// Tolerates reports whether every live log would keep spare more fresh
// copies than its redundancy needs (one, or K shards) if the disks down
// names failed too: the question a fault schedule asks before each kill
// or corruption, to inject no more loss than the logs survive.
func (m *Manager) Tolerates(spare int, down func(p *pool.Pool, d pool.DiskID) bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.logs {
		l.mu.RLock()
		short := l.fresh(-1, func(d pool.DiskID) bool { return down(l.pool, d) }) < l.red.required()+spare
		l.mu.RUnlock()
		if short {
			return false
		}
	}
	return true
}

// fresh counts the log's copies, but copy skip, that could serve a
// rebuild: not stale, not corrupt, on a healthy disk down does not name
// (nil names none). Caller holds mu.
func (l *PLog) fresh(skip int, down func(pool.DiskID) bool) int {
	l.imu.Lock()
	defer l.imu.Unlock()
	n := 0
next:
	for i, s := range l.slices {
		if i == skip || l.staleLocked(i) || l.pool.DiskFailed(s.Disk) || down != nil && down(s.Disk) {
			continue
		}
		if i < len(l.copySums) {
			for e, sum := range l.copySums[i] {
				if sum != l.trueSums[e][i] {
					continue next
				}
			}
		}
		n++
	}
	return n
}

// StaleBytes sums the missing redundancy bytes across all live logs.
func (m *Manager) StaleBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, l := range m.logs {
		total += l.StaleBytes()
	}
	return total
}

// MarkDisksStale marks every live log's copies on the given disks of p
// fully stale, in log-ID order, and returns the stale bytes recorded:
// copies moved onto a joining node, which arrive empty, or with unreached
// those of a node declared dead, which Reached restores.
func (m *Manager) MarkDisksStale(p *pool.Pool, disks map[pool.DiskID]bool, unreached bool) int64 {
	var total int64
	for _, l := range m.sortedLogs() {
		total += l.markStale(p, disks, unreached)
	}
	return total
}

// Reached restores every live log's copies on the given disks of p that
// MarkDisksUnreachable marked and nothing moved since — a readmitted
// node's copies hold their bytes — and returns the stale bytes cleared.
func (m *Manager) Reached(p *pool.Pool, disks map[pool.DiskID]bool) int64 {
	var total int64
	for _, l := range m.sortedLogs() {
		total += l.reached(p, disks)
	}
	return total
}

// Pool exposes the storage pool the manager places logs on.
func (m *Manager) Pool() *pool.Pool { return m.pool }

// LogicalBytes sums the logical bytes of all live logs.
func (m *Manager) LogicalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, l := range m.logs {
		total += l.Size()
	}
	return total
}
