// Package streamobj implements the stream object (Section IV-A), the
// paper's novel storage abstraction for key-value message streaming: a
// partition of key-value records organized as data slices of up to 256
// records, appended by topic/key/offset, distributed over the 4096
// logical shards of Figure 4 and persisted redundantly through PLogs.
//
// The Go API mirrors the C operations of Figure 3:
//
//	CreateServerStreamObject  -> Store.Create
//	DestroyServerStreamObject -> Store.Destroy
//	AppendServerStreamObject  -> Object.Append
//	ReadServerStreamObject    -> Object.Read
//
// IO_CONTENT_S's non-blocking buffers appear as the open slice buffer:
// appends accumulate in memory and persist a full slice at a time;
// ReadCtrl carries the read limits.
package streamobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/kv"
	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/resil"
	"streamlake/internal/shard"
	"streamlake/internal/sim"
	"streamlake/internal/tenant"
)

// SliceRecords is the paper's fixed slice capacity: up to 256 records.
const SliceRecords = 256

// Record is one key-value message. Offset and Timestamp are assigned by
// the object on append.
type Record struct {
	Key       []byte
	Value     []byte
	Offset    int64
	Timestamp time.Duration
}

func (r Record) encodedSize() int64 {
	return int64(len(r.Key) + len(r.Value) + 2*binary.MaxVarintLen64)
}

// CreateOptions is the CREATE_OPTIONS_S of Figure 3: redundancy method,
// I/O quota, and cache policy.
type CreateOptions struct {
	// Topic names the message stream the object belongs to.
	Topic string
	// Redundancy selects replicate or erasure code (default: 3 copies).
	Redundancy plog.Redundancy
	// QuotaPerSec caps appended records per virtual second; 0 = unlimited
	// (the quota field of Figure 8).
	QuotaPerSec int64
	// SCMCache acks appends from a storage-class-memory buffer and keeps
	// recent slices cached there (the scm_cache flag of Figure 8,
	// hardware Set-2 of Section VII-C).
	SCMCache bool
}

// ReadCtrl is the READ_CTRL_S of Figure 3: limits on a read.
type ReadCtrl struct {
	// MaxRecords caps returned records; 0 means SliceRecords.
	MaxRecords int
	// MaxBytes caps returned payload bytes; 0 means unlimited.
	MaxBytes int64
	// Ctx carries the request's virtual-time deadline down through the
	// shard space into the PLog reads; nil means no deadline. When a
	// slice load pushes the request past its deadline, Read returns the
	// records collected so far together with resil.ErrDeadlineExceeded.
	Ctx *resil.Ctx
}

// Errors returned by stream object operations.
var (
	ErrThrottled     = errors.New("streamobj: quota exceeded, retry later")
	ErrUnknownObject = errors.New("streamobj: unknown object")
	ErrPastEnd       = errors.New("streamobj: offset past end of stream")
)

// ObjectID identifies a stream object, the object_id_t of Figure 3.
type ObjectID int64

// Store creates and owns stream objects over a shard space; it is the
// store-layer entry point for the stream abstraction.
type Store struct {
	clock   *sim.Clock
	mgr     *plog.Manager
	index   *kv.DB
	scm     *sim.Device
	journal *sim.Device

	mu      sync.Mutex
	objects map[ObjectID]*Object
	nextID  ObjectID
	metrics storeMetrics

	// gc is the group-commit coordinator (see plog.GroupCommitter):
	// full-slice flushes wait until its target count is buffered and
	// fold into one PLog commit. The target is a size, not a switch — the
	// default of 1 commits every slice on its own. Never nil; atomic so
	// flush paths read it without the store lock.
	gc atomic.Pointer[plog.GroupCommitter]

	// tenants is the multi-tenancy plane: capacity quotas are charged at
	// durable append, and poolQoS imposes weighted-fair admission delay
	// at the pool (slice-flush) entry point. Never nil: NewStore starts
	// with an empty registry, under which nothing is metered.
	tenants atomic.Pointer[tenant.Registry]
	poolQoS atomic.Pointer[tenant.Sched]
}

// SetTenants attaches the tenant registry: capacity charging at durable
// append and weighted-fair pool admission at slice flush. Call at
// wiring time.
func (s *Store) SetTenants(reg *tenant.Registry) {
	s.tenants.Store(reg)
	s.poolQoS.Store(tenant.NewSched(s.clock, reg, sim.Spec(sim.NVMeSSD).WriteBandwidth))
}

// EnableGroupCommit sizes group commit: up to `slices` full-slice
// flushes fold into one PLog commit per placement group (values below 2
// mean one commit per slice, the default). Call at wiring time; resizing
// mid-traffic is safe but makes flush timing config-dependent.
func (s *Store) EnableGroupCommit(slices int) {
	s.gc.Store(plog.NewGroupCommitter(slices))
}

// GroupCommitStats snapshots the group-commit coordinator's counters:
// commits that coalesced more than one slice, so zeros at target 1.
func (s *Store) GroupCommitStats() plog.GroupCommitStats {
	return s.gc.Load().Stats()
}

// storeMetrics is the stream-object layer's obs instrument set; wired
// once by SetObs, nil-safe no-ops until then.
type storeMetrics struct {
	flushes       *obs.Counter // slices persisted into PLogs
	flushBytes    *obs.Counter
	dedupAcks     *obs.Counter   // duplicate batches re-acked without appending
	flushDeferred *obs.Counter   // slice flushes deferred by storage errors
	ackLat        *obs.Histogram // per-batch ack (journal/SCM) latency
}

// SetObs registers the store's telemetry with an obs registry. Call at
// wiring time, before the store serves traffic.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	s.metrics = storeMetrics{
		flushes:       reg.Counter("streamobj_slice_flushes_total"),
		flushBytes:    reg.Counter("streamobj_flush_bytes_total"),
		dedupAcks:     reg.Counter("streamobj_dedup_acks_total"),
		flushDeferred: reg.Counter("streamobj_flush_deferred_total"),
		ackLat:        reg.Histogram("streamobj_ack_seconds"),
	}
	s.mu.Unlock()
	if reg == nil {
		return
	}
	reg.GaugeFunc("streamobj_objects", func() float64 { return float64(s.Count()) })
}

// NewStore builds a store creating PLogs from mgr. The index DB serves as
// the key-value record-lookup index for PLogs the paper describes; the
// SCM device backs objects created with SCMCache.
func NewStore(clock *sim.Clock, mgr *plog.Manager) *Store {
	s := &Store{
		clock:   clock,
		mgr:     mgr,
		index:   kv.Open(kv.Options{Device: sim.NewDeviceOf("plog-index", sim.SCM)}),
		scm:     sim.NewDeviceOf("stream-scm", sim.SCM),
		journal: sim.NewDeviceOf("stream-journal", sim.NVMeSSD),
		objects: make(map[ObjectID]*Object),
	}
	s.EnableGroupCommit(1)
	reg, _ := tenant.NewRegistry(nil) // no configs, no error
	s.SetTenants(reg)
	return s
}

// Create allocates a new stream object (CreateServerStreamObject).
func (s *Store) Create(opts CreateOptions) (*Object, error) {
	if opts.Redundancy.Width() == 0 {
		opts.Redundancy = plog.ReplicateN(3)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	o := &Object{
		id:          s.nextID,
		opts:        opts,
		store:       s,
		space:       shard.NewSpace(s.mgr, opts.Redundancy),
		producerSeq: make(map[string]dedupEntry),
		cache:       make(map[int64][]Record),
	}
	s.objects[o.id] = o
	return o, nil
}

// Get returns the object with the given id, or nil.
func (s *Store) Get(id ObjectID) *Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objects[id]
}

// Destroy releases an object and its PLogs (DestroyServerStreamObject).
func (s *Store) Destroy(id ObjectID) error {
	s.mu.Lock()
	o, ok := s.objects[id]
	if ok {
		delete(s.objects, id)
	}
	s.mu.Unlock()
	if !ok {
		return ErrUnknownObject
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, sh := range o.touchedShards() {
		if err := o.space.Drop(sh); err != nil {
			return err
		}
	}
	return nil
}

// Count reports live objects.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// StaleBytes sums the missing redundancy bytes across all live objects —
// zero when the store is fully redundant.
func (s *Store) StaleBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, o := range s.objects {
		total += o.StaleBytes()
	}
	return total
}

// sliceEntry locates one persisted slice.
type sliceEntry struct {
	base  int64 // offset of the slice's first record
	count int
	loc   shard.Loc
}

// Object is one stream object: a strictly ordered partition of records.
type Object struct {
	id    ObjectID
	opts  CreateOptions
	store *Store
	space *shard.Space

	mu          sync.Mutex
	nextOffset  int64
	buf         []Record // open slice (non-blocking append buffer)
	bufBase     int64
	slices      []sliceEntry // persisted slice directory, ascending base
	producerSeq map[string]dedupEntry
	cache       map[int64][]Record // recent slices kept in SCM
	cacheOrder  []int64
	// Quota token bucket on the virtual clock.
	tokens        float64
	lastRefill    time.Duration
	appended      int64
	bytesAppended int64
	// Per-tenant byte accounting (lazily allocated, only once a metered
	// batch arrives): pending counts journal-durable bytes awaiting
	// pool admission at slice flush; stored counts capacity-charged
	// bytes, credited back on reclamation.
	tenantPending map[string]int64
	tenantStored  map[string]int64
}

// ID returns the object's identifier.
func (o *Object) ID() ObjectID { return o.id }

// Topic returns the topic the object serves.
func (o *Object) Topic() string { return o.opts.Topic }

// End returns the offset one past the last appended record.
func (o *Object) End() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nextOffset
}

// dedupEntry remembers, per producer, the last acknowledged batch: its
// sequence number and the base offset the batch landed at, so a retried
// batch is re-acked with the offsets the original got. The dedup window
// is one batch deep — exactly what a producer that retries one batch at
// a time with the same sequence number needs.
type dedupEntry struct {
	seq  int64
	base int64
}

// Append appends records (AppendServerStreamObject), returning the
// offset of the first appended record and the modelled latency. Writes
// are idempotent per producer: a batch whose sequence number was already
// seen is acknowledged again without being re-appended, which is how
// duplicate sends after a network failure are absorbed.
func (o *Object) Append(records []Record, producerID string, seq int64) (int64, time.Duration, error) {
	base, cost, _, err := o.AppendTenantCtx(records, producerID, seq, "", nil, nil)
	return base, cost, err
}

// AppendTenantCtx is Append with tracing, a resilience context, and a
// tenant identity.
//
// Tracing: the durable ack writes and any slice flushes triggered by
// the batch are recorded as children of sp. The flush children do not
// advance the span cursor — flushing happens off the ack path, exactly
// as the returned latency excludes it. A nil span traces nothing.
//
// Deadline: rc carries the request's virtual-time deadline. The batch is
// all-or-nothing with respect to visibility: every error that can leave
// nothing behind (throttle, deadline on entry) is checked before the
// first record is buffered, and once buffering starts the whole batch
// becomes durable. If charging the ack cost then lands past the
// deadline, the batch IS durable — its sequence number is recorded and
// the base offset is returned alongside resil.ErrDeadlineExceeded, so an
// idempotent retry resolves the ambiguous timeout with a duplicate ack
// instead of a duplicate append.
//
// Tenant: the batch's durable bytes are charged against the tenant's
// capacity quota (rolled back if the object-level throttle then
// rejects), and the flushed bytes later pay weighted-fair pool
// admission. The appended return reports
// whether records were actually buffered this call — false for a dedup
// re-ack, which the producer uses to refund a fresh admission charge
// that did no work. The system identity "" bypasses all tenant
// accounting.
func (o *Object) AppendTenantCtx(records []Record, producerID string, seq int64, ten string, sp *obs.Span, rc *resil.Ctx) (int64, time.Duration, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.producerSeq[producerID]; ok && producerID != "" && seq <= e.seq {
		o.store.metrics.dedupAcks.Inc()
		if sp != nil {
			sp.SetAttr("dedup", "hit")
		}
		if seq == e.seq {
			return e.base, 0, false, nil // retried batch: re-ack its original base
		}
		return o.nextOffset, 0, false, nil // older duplicate: long since durable
	}
	if err := rc.Check(); err != nil {
		return 0, 0, false, err // out of time before any work: nothing appended
	}
	var batchBytes int64
	for i := range records {
		batchBytes += records[i].encodedSize()
	}
	// Capacity is charged before the object-level throttle and rolled
	// back if the throttle rejects, so a rejected batch consumes neither.
	// The dedup window above already ruled the batch new, so a retried
	// batch can never be capacity-charged twice.
	reg := o.store.tenants.Load()
	tenanted := ten != ""
	if tenanted {
		if err := reg.ChargeCapacity(ten, batchBytes); err != nil {
			return 0, 0, false, err
		}
	}
	if err := o.takeTokens(len(records)); err != nil {
		if tenanted {
			reg.CreditCapacity(ten, batchBytes)
		}
		return 0, 0, false, err
	}
	base := o.nextOffset
	now := o.store.clock.Now()
	var cost time.Duration
	for i := range records {
		r := records[i]
		r.Offset = o.nextOffset
		r.Timestamp = now
		o.nextOffset++
		o.buf = append(o.buf, r)
		// Each record is durable before it is acknowledged: the ack path
		// is a journal write to SCM (Set-2) or to the SSD pool (Set-1).
		// The slice flush into PLogs below happens off the ack path.
		if o.opts.SCMCache {
			cost += o.store.scm.Write(r.encodedSize())
		} else {
			cost += o.store.journal.Write(r.encodedSize())
		}
	}
	if sp != nil {
		ack := sp.Child("ack.scm")
		if !o.opts.SCMCache {
			ack.Name = "ack.journal"
		}
		ack.End(cost)
		sp.Advance(cost) // acks gate the producer's observed latency
	}
	if producerID != "" {
		o.producerSeq[producerID] = dedupEntry{seq: seq, base: base}
	}
	o.appended += int64(len(records))
	o.bytesAppended += batchBytes
	if tenanted {
		if o.tenantPending == nil {
			o.tenantPending = make(map[string]int64)
			o.tenantStored = make(map[string]int64)
		}
		o.tenantPending[ten] += batchBytes
		o.tenantStored[ten] += batchBytes
	}
	o.store.metrics.ackLat.Observe(cost)
	// Persist full slices into PLogs, after the whole batch is journaled
	// and visible. A flush failure (storage beyond fault tolerance) does
	// not fail the append — the records are journal-durable and stay in
	// the open buffer for the next flush attempt — because failing here
	// after part of the batch became visible would make a retry
	// double-append the rest.
	//
	// Group commit: full slices wait until the coordinator's target count
	// is buffered, then the oldest `target` of them fold into one PLog
	// commit (target 1, the default: every full slice commits on its
	// own). Deferral risks nothing — the records are journal-durable and
	// readable from the open buffer while they wait.
	target := o.store.gc.Load().Target()
	for len(o.buf) >= target*SliceRecords {
		if _, err := o.flushBatchLocked(target, sp); err != nil {
			o.store.metrics.flushDeferred.Inc()
			break
		}
	}
	derr := rc.Charge(cost)
	return base, cost, true, derr
}

// poolAdmitLocked drains pending per-tenant bytes through the pool's
// weighted-fair admission scheduler as flushed bytes enter the SSD
// pool, returning the scheduling delay to fold into the flush cost.
// Draining walks tenants in sorted-name order so replays are
// bit-identical. A no-op until a metered batch arrives.
func (o *Object) poolAdmitLocked(flushed int64) time.Duration {
	if flushed <= 0 || len(o.tenantPending) == 0 {
		return 0
	}
	sched := o.store.poolQoS.Load()
	names := make([]string, 0, len(o.tenantPending))
	for n := range o.tenantPending {
		names = append(names, n)
	}
	sort.Strings(names)
	var total time.Duration
	rem := flushed
	for _, name := range names {
		if rem <= 0 {
			break
		}
		take := o.tenantPending[name]
		if take > rem {
			take = rem
		}
		total += sched.Delay(name, 1, take) // class 1 = Normal

		rem -= take
		if o.tenantPending[name] -= take; o.tenantPending[name] <= 0 {
			delete(o.tenantPending, name)
		}
	}
	return total
}

// creditReclaimLocked returns reclaimed bytes to tenant capacity
// quotas, proportionally to each tenant's stored share (slices mix
// tenants, so per-slice attribution is not tracked). Sorted-name order
// keeps replays bit-identical.
func (o *Object) creditReclaimLocked(freed int64) {
	if freed <= 0 || len(o.tenantStored) == 0 {
		return
	}
	reg := o.store.tenants.Load()
	var total int64
	names := make([]string, 0, len(o.tenantStored))
	for n, v := range o.tenantStored {
		names = append(names, n)
		total += v
	}
	if total == 0 {
		return
	}
	if freed > total {
		freed = total
	}
	sort.Strings(names)
	for _, name := range names {
		credit := freed * o.tenantStored[name] / total
		if credit <= 0 {
			continue
		}
		reg.CreditCapacity(name, credit)
		if o.tenantStored[name] -= credit; o.tenantStored[name] <= 0 {
			delete(o.tenantStored, name)
		}
	}
}

// CanAppend reports whether the quota currently admits n more records,
// without consuming tokens — the prepare check of the streaming
// service's two-phase commit.
func (o *Object) CanAppend(n int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.opts.QuotaPerSec <= 0 {
		return nil
	}
	now := o.store.clock.Now()
	tokens := o.tokens + (now-o.lastRefill).Seconds()*float64(o.opts.QuotaPerSec)
	if max := float64(o.opts.QuotaPerSec); tokens > max {
		tokens = max
	}
	if tokens < float64(n) {
		return ErrThrottled
	}
	return nil
}

// takeTokens enforces the per-second quota against the virtual clock.
func (o *Object) takeTokens(n int) error {
	if o.opts.QuotaPerSec <= 0 {
		return nil
	}
	now := o.store.clock.Now()
	elapsed := now - o.lastRefill
	o.lastRefill = now
	o.tokens += elapsed.Seconds() * float64(o.opts.QuotaPerSec)
	if max := float64(o.opts.QuotaPerSec); o.tokens > max {
		o.tokens = max
	}
	if o.tokens < float64(n) {
		return ErrThrottled
	}
	o.tokens -= float64(n)
	return nil
}

// Flush persists everything in the open buffer, even a short trailing
// slice — used on topic shutdown and before conversion so no records
// are stranded in memory. The buffer may hold several slices' worth
// (group commit below its target, or flushes deferred by storage
// errors); they drain oldest first in commits of up to the group-commit
// target.
func (o *Object) Flush() (time.Duration, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	target := o.store.gc.Load().Target()
	var total time.Duration
	for len(o.buf) > 0 {
		cost, err := o.flushBatchLocked(target, nil)
		total += cost
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// flushBatchLocked persists the oldest buffered records as up to
// maxSlices consecutive slices (SliceRecords each; the last may be a
// short tail) folded into ONE device commit per placement copy
// (plog.AppendBatch): each slice keeps its own payload, CRC sidecar,
// index entry, and SCM-cache entry — only the device write ops
// coalesce. On a storage error nothing is persisted and the records
// stay buffered and visible (they are journal-durable); the caller
// decides whether to surface or defer.
func (o *Object) flushBatchLocked(maxSlices int, sp *obs.Span) (time.Duration, error) {
	slices := (len(o.buf) + SliceRecords - 1) / SliceRecords
	if slices > maxSlices {
		slices = maxSlices
	}
	if slices <= 0 {
		return 0, nil
	}
	// chunk is the i-th slice's records: SliceRecords of them, or the
	// short tail.
	chunk := func(i int) []Record {
		end := (i + 1) * SliceRecords
		if end > len(o.buf) {
			end = len(o.buf)
		}
		return o.buf[i*SliceRecords : end]
	}
	payloads := make([][]byte, slices)
	bufs := make([]*[]byte, slices)
	for i := range payloads {
		bufs[i] = sliceBufPool.Get().(*[]byte)
		payloads[i] = encodeSliceInto((*bufs[i])[:0], chunk(i))
	}
	// The PLog copies each payload into its logical stream and computes
	// sidecar checksums within the append, so the encode buffers are dead
	// once it returns — success or not — and are recycled on the way out.
	defer func() {
		for i, p := range payloads {
			*bufs[i] = p[:0]
			sliceBufPool.Put(bufs[i])
		}
	}()
	// Figure 4 a-d: the object is assigned to a logical shard by hashing
	// topic and object id; the shard persists its slices through a chain
	// of PLogs. Hashing the slice position here instead would give every
	// slice its own shard — and thus its own single-use PLog, which never
	// fills, never chains, and never sees an append after its placement
	// group was allocated (so a disk death could never degrade a write).
	sh := shard.ForKey([]byte(fmt.Sprintf("%s/%d", o.opts.Topic, o.id)))
	// The flush rides under its own child span and never advances the
	// parent cursor: persisting the slice into PLogs happens off the
	// ack path, so it overlaps the acks in the trace, exactly as the
	// returned latency excludes it.
	var fsp *obs.Span
	if sp != nil {
		fsp = sp.Child("slice.flush")
		if slices > 1 {
			fsp.SetAttr("group", strconv.Itoa(slices))
		}
	}
	locs, cost, err := o.space.AppendBatch(sh, payloads, fsp)
	if err != nil {
		return 0, err
	}
	fsp.End(cost)
	if slices > 1 {
		o.store.gc.Load().Note(slices, o.opts.Redundancy.Width())
	}
	// trim drops the first n flushed records from the open buffer,
	// compacting in place so the buffer keeps its capacity across slices.
	// Read and cacheSlice copy records out, so nothing aliases the
	// vacated tail; clearing it lets the flushed keys and values go.
	trim := func(n int) {
		kept := copy(o.buf, o.buf[n:])
		clear(o.buf[kept:])
		o.buf = o.buf[:kept]
	}
	var records int
	var flushed int64
	for i, loc := range locs {
		recs := chunk(i)
		o.store.metrics.flushes.Inc()
		o.store.metrics.flushBytes.Add(int64(len(payloads[i])))
		o.slices = append(o.slices, sliceEntry{base: o.bufBase, count: len(recs), loc: loc})
		// Persist the slice index in the KV store (the PLog lookup index).
		key := fmt.Sprintf("sobj/%d/%020d", o.id, o.bufBase)
		_, perr := o.store.index.Put([]byte(key), encodeLoc(loc, len(recs)))
		if o.opts.SCMCache {
			o.cacheSlice(o.bufBase, recs)
		}
		o.bufBase += int64(len(recs))
		records += len(recs)
		flushed += int64(len(payloads[i]))
		if perr != nil {
			// This slice is persisted and tracked in o.slices; trim
			// through it so a retry can't double-flush, then surface.
			trim(records)
			return cost, perr
		}
	}
	trim(records)
	cost += o.poolAdmitLocked(flushed)
	return cost, nil
}

const cacheSlices = 64

func (o *Object) cacheSlice(base int64, recs []Record) {
	cp := make([]Record, len(recs))
	copy(cp, recs)
	o.cache[base] = cp
	o.cacheOrder = append(o.cacheOrder, base)
	if len(o.cacheOrder) > cacheSlices {
		evict := o.cacheOrder[0]
		o.cacheOrder = o.cacheOrder[1:]
		delete(o.cache, evict)
	}
}

// Read returns records from offset (ReadServerStreamObject), subject to
// ctrl limits, with the modelled read latency. Reads past the current
// end return ErrPastEnd; the streaming service turns that into a poll.
// With a deadline (ctrl.Ctx), a slice load that runs the request out of
// time returns the records collected so far with
// resil.ErrDeadlineExceeded — partial progress is kept, not discarded.
func (o *Object) Read(offset int64, ctrl ReadCtrl) ([]Record, time.Duration, error) {
	maxRecords := ctrl.MaxRecords
	if maxRecords <= 0 {
		maxRecords = SliceRecords
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := ctrl.Ctx.Check(); err != nil {
		return nil, 0, err
	}
	if offset < 0 || offset > o.nextOffset {
		return nil, 0, ErrPastEnd
	}
	if offset == o.nextOffset {
		return nil, 0, nil // caught up; poll again
	}
	out := make([]Record, 0, min(int64(maxRecords), o.nextOffset-offset))
	var cost time.Duration
	var bytes int64
	for int64(len(out)) == 0 || (offset < o.nextOffset && len(out) < maxRecords) {
		if offset >= o.bufBase {
			// Open slice: served from memory.
			for _, r := range o.buf {
				if r.Offset >= offset && len(out) < maxRecords {
					if ctrl.MaxBytes > 0 && bytes+r.encodedSize() > ctrl.MaxBytes && len(out) > 0 {
						return out, cost, nil
					}
					out = append(out, r)
					bytes += r.encodedSize()
					offset = r.Offset + 1
				}
			}
			break
		}
		entry, ok := o.findSlice(offset)
		if !ok {
			break
		}
		recs, c, err := o.loadSlice(entry, ctrl.Ctx)
		if errors.Is(err, resil.ErrDeadlineExceeded) {
			return out, cost + c, err
		}
		if err != nil {
			return nil, 0, err
		}
		cost += c
		for _, r := range recs {
			if r.Offset >= offset && len(out) < maxRecords {
				if ctrl.MaxBytes > 0 && bytes+r.encodedSize() > ctrl.MaxBytes && len(out) > 0 {
					return out, cost, nil
				}
				out = append(out, r)
				bytes += r.encodedSize()
			}
		}
		offset = entry.base + int64(entry.count)
		if len(out) >= maxRecords {
			break
		}
	}
	return out, cost, nil
}

// findSlice locates the persisted slice containing offset.
func (o *Object) findSlice(offset int64) (sliceEntry, bool) {
	i := sort.Search(len(o.slices), func(i int) bool {
		return o.slices[i].base+int64(o.slices[i].count) > offset
	})
	if i >= len(o.slices) {
		return sliceEntry{}, false
	}
	return o.slices[i], true
}

// loadSlice fetches a slice from SCM cache or PLog storage, charging
// the load cost to the request context (when present).
func (o *Object) loadSlice(e sliceEntry, rc *resil.Ctx) ([]Record, time.Duration, error) {
	if recs, ok := o.cache[e.base]; ok {
		var n int64
		for _, r := range recs {
			n += r.encodedSize()
		}
		cost := o.store.scm.Read(n)
		return recs, cost, rc.Charge(cost)
	}
	data, cost, err := o.space.ReadCtx(e.loc, rc)
	if err != nil {
		return nil, cost, err
	}
	recs, err := decodeSlice(data, e.base)
	if err != nil {
		return nil, 0, err
	}
	return recs, cost, nil
}

// ReclaimThrough destroys the PLogs whose slices all end at or before
// offset — the storage-reclamation half of stream-to-table conversion
// with delete_msg set (Section V-B): once messages are converted to
// table records, the stream copy is released so only one copy remains.
// It returns the logical bytes freed. The open slice buffer and any log
// still holding unconverted slices are untouched.
func (o *Object) ReclaimThrough(offset int64) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	type logGroup struct {
		reclaimable bool
		entries     []int
	}
	groups := map[plog.ID]*logGroup{}
	for i, e := range o.slices {
		g := groups[e.loc.Log]
		if g == nil {
			g = &logGroup{reclaimable: true}
			groups[e.loc.Log] = g
		}
		g.entries = append(g.entries, i)
		if e.base+int64(e.count) > offset {
			g.reclaimable = false
		}
	}
	var freed int64
	drop := map[int]bool{}
	for id, g := range groups {
		if !g.reclaimable {
			continue
		}
		l := o.store.mgr.Get(id)
		if l == nil {
			continue
		}
		// A fully drained log still open for appends is sealed here; the
		// shard space rolls a fresh log on the next append.
		l.Seal()
		freed += l.Size()
		if err := o.space.DestroyLog(id); err != nil {
			return freed, err
		}
		for _, i := range g.entries {
			drop[i] = true
			delete(o.cache, o.slices[i].base)
		}
	}
	if len(drop) > 0 {
		kept := o.slices[:0]
		for i, e := range o.slices {
			if !drop[i] {
				kept = append(kept, e)
			}
		}
		o.slices = kept
	}
	o.creditReclaimLocked(freed)
	return freed, nil
}

// FullyRedundant reports whether every PLog backing the object holds its
// full redundancy — false while degraded writes await the repair
// service.
func (o *Object) FullyRedundant() bool { return o.space.FullyRedundant() }

// StaleBytes sums the missing redundancy bytes across the object's
// PLogs.
func (o *Object) StaleBytes() int64 { return o.space.StaleBytes() }

// touchedShards returns the distinct shards the object has written.
func (o *Object) touchedShards() []shard.ID {
	seen := map[shard.ID]bool{}
	var out []shard.ID
	for _, e := range o.slices {
		if !seen[e.loc.Shard] {
			seen[e.loc.Shard] = true
			out = append(out, e.loc.Shard)
		}
	}
	return out
}

// Stats reports object counters.
type Stats struct {
	Appended int64
	Bytes    int64
	End      int64
	OpenBuf  int
	Slices   int
}

// Stats returns a snapshot of the object's counters.
func (o *Object) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Stats{
		Appended: o.appended,
		Bytes:    o.bytesAppended,
		End:      o.nextOffset,
		OpenBuf:  len(o.buf),
		Slices:   len(o.slices),
	}
}

// Slice wire format: count, then per record key/value lengths and bytes
// plus the timestamp. Offsets are implicit from the slice base.

// sliceBufPool recycles slice-encode buffers. A payload is copied into
// the PLog's logical stream (and checksummed) within the append call,
// so the encode buffer is dead the moment the append returns and the
// next flush can reuse it instead of allocating.
var sliceBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

func encodeSlice(recs []Record) []byte { return encodeSliceInto(nil, recs) }

func encodeSliceInto(out []byte, recs []Record) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(recs)))
	out = append(out, tmp[:n]...)
	for _, r := range recs {
		n = binary.PutUvarint(tmp[:], uint64(len(r.Key)))
		out = append(out, tmp[:n]...)
		out = append(out, r.Key...)
		n = binary.PutUvarint(tmp[:], uint64(len(r.Value)))
		out = append(out, tmp[:n]...)
		out = append(out, r.Value...)
		n = binary.PutVarint(tmp[:], int64(r.Timestamp))
		out = append(out, tmp[:n]...)
	}
	return out
}

func decodeSlice(data []byte, base int64) ([]Record, error) {
	count, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errors.New("streamobj: truncated slice")
	}
	data = data[sz:]
	// Untrusted count: each record costs at least 3 bytes.
	if count > uint64(len(data))/3+1 {
		return nil, errors.New("streamobj: record count exceeds slice size")
	}
	out := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		kl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < kl {
			return nil, errors.New("streamobj: truncated key")
		}
		data = data[sz:]
		// Zero-copy borrow: the key and value alias the slice buffer —
		// either a read-only borrow of the PLog's logical stream or the
		// object's SCM-cached copy, both immutable — so decoding a slice
		// allocates only the Record headers, never the payload bytes.
		// Full-capped so an append on a Record can't scribble on the log.
		key := data[:kl:kl]
		data = data[kl:]
		vl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < vl {
			return nil, errors.New("streamobj: truncated value")
		}
		data = data[sz:]
		val := data[:vl:vl]
		data = data[vl:]
		ts, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, errors.New("streamobj: truncated timestamp")
		}
		data = data[sz:]
		out = append(out, Record{Key: key, Value: val, Offset: base + int64(i), Timestamp: time.Duration(ts)})
	}
	return out, nil
}

func encodeLoc(loc shard.Loc, count int) []byte {
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []int64{int64(loc.Shard), int64(loc.Log), loc.Offset, int64(loc.Len), int64(count)} {
		n := binary.PutVarint(tmp[:], v)
		out = append(out, tmp[:n]...)
	}
	return out
}
