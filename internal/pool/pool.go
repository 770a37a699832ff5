// Package pool implements the SSD/HDD data storage pools of StreamLake's
// store layer (Section III). Physical space on every disk in the cluster
// is divided into fixed-size slices; slices are organized as logical
// units across disks in different servers for redundancy and load
// balance. The pool also implements data reconstruction after disk
// failure.
package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
)

// DiskID identifies a disk within one pool.
type DiskID int

// SliceID identifies an allocated slice within one pool.
type SliceID int64

// DefaultSliceSize is the allocation granularity: 4 MiB, a typical slice
// size for distributed block pools.
const DefaultSliceSize int64 = 4 << 20

// Slice is one allocated unit of physical space on a specific disk.
type Slice struct {
	ID   SliceID
	Disk DiskID
	Size int64
	live int64 // valid bytes written
}

type disk struct {
	id     DiskID
	dev    *sim.Device
	failed bool
	slices map[SliceID]*Slice
}

// Stats is a snapshot of pool-wide accounting.
type Stats struct {
	Disks         int
	FailedDisks   int
	Capacity      int64
	Used          int64 // bytes held by allocated slices
	Live          int64
	SliceCount    int
	Reconstructed int64 // bytes migrated by reconstruction so far
}

// Utilization reports used/capacity, the disk utilization rate from the
// paper's TCO discussion.
func (s Stats) Utilization() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Used) / float64(s.Capacity)
}

// FaultHook intercepts disk I/O for fault injection. Implementations
// return extra latency to charge to the operation and/or an error that
// fails it before any bytes or device time are accounted. Hooks are
// invoked outside the pool's lock, so an implementation may call back
// into pool methods (FailDisk, ReviveDisk) from other goroutines without
// deadlocking.
type FaultHook interface {
	BeforeWrite(disk DiskID, n int64) (time.Duration, error)
	BeforeRead(disk DiskID, n int64) (time.Duration, error)
}

// Pool is a redundancy-aware slice allocator over a set of homogeneous
// simulated disks.
type Pool struct {
	name      string
	clock     *sim.Clock
	class     sim.DeviceClass // device class new disks are built from (AddDisks)
	sliceSize int64

	mu            sync.Mutex
	disks         []*disk
	domains       []int // failure domain per disk; all 0 until SetDomains
	slices        map[SliceID]*Slice
	nextSlice     SliceID
	reconstructed int64
	hook          FaultHook

	// avoid vetoes new placements on a disk without failing it (the disk
	// still serves reads and repairs-in-place). Stored atomically so the
	// allocator may consult it while holding p.mu and the owner (the
	// cluster's failure detector) may swap it from any goroutine without
	// taking pool locks — the hook itself must therefore never call back
	// into the pool.
	avoid atomic.Pointer[func(DiskID) bool]
}

// Errors returned by pool operations.
var (
	ErrNoSpace      = errors.New("pool: no disk with free capacity")
	ErrUnknownSlice = errors.New("pool: unknown slice")
	ErrDiskFailed   = errors.New("pool: disk has failed")
	ErrNotEnough    = errors.New("pool: not enough healthy disks for placement group")
)

// New builds a pool of n identical disks of the given device class. The
// clock receives no charges directly; operation costs are returned to
// callers, who decide how to combine parallel device times.
func New(name string, clock *sim.Clock, class sim.DeviceClass, n int, sliceSize int64) *Pool {
	if sliceSize <= 0 {
		sliceSize = DefaultSliceSize
	}
	p := &Pool{
		name:      name,
		clock:     clock,
		class:     class,
		sliceSize: sliceSize,
		domains:   make([]int, n),
		slices:    make(map[SliceID]*Slice),
	}
	p.SetAvoid(func(DiskID) bool { return false })
	for i := 0; i < n; i++ {
		p.disks = append(p.disks, &disk{
			id:     DiskID(i),
			dev:    sim.NewDeviceOf(fmt.Sprintf("%s-disk%d", name, i), class),
			slices: make(map[SliceID]*Slice),
		})
	}
	return p
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Class returns the device class the pool's disks are built from.
func (p *Pool) Class() sim.DeviceClass { return p.class }

// SetFaultHook installs (or clears, with nil) the pool's fault-injection
// hook. All slice reads and writes, including repair I/O, pass through
// the hook.
func (p *Pool) SetFaultHook(h FaultHook) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hook = h
}

// SetObs registers the pool's telemetry with an obs registry: I/O
// counters labelled by pool name, summed from the disks' device stats
// (repair I/O counts; a rolled-back write does not, unless a scrape
// lands before its rollback), plus utilization / queue-depth / health
// gauges evaluated from Stats at scrape time. A nil registry is a no-op.
func (p *Pool) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	label := `{pool="` + p.name + `"}`
	sum := func(f func(sim.DeviceStats) int64) func() int64 {
		return func() int64 {
			var n int64
			p.mu.Lock()
			for _, d := range p.disks {
				n += f(d.dev.Stats())
			}
			p.mu.Unlock()
			return n
		}
	}
	reg.CounterFunc("pool_write_ops_total"+label, sum(func(s sim.DeviceStats) int64 { return s.WriteOps }))
	reg.CounterFunc("pool_write_bytes_total"+label, sum(func(s sim.DeviceStats) int64 { return s.WriteBytes }))
	reg.CounterFunc("pool_read_ops_total"+label, sum(func(s sim.DeviceStats) int64 { return s.ReadOps }))
	reg.CounterFunc("pool_read_bytes_total"+label, sum(func(s sim.DeviceStats) int64 { return s.ReadBytes }))
	busy := sum(func(s sim.DeviceStats) int64 { return int64(s.BusyTime) })
	reg.GaugeFunc("pool_utilization"+label, func() float64 { return p.Stats().Utilization() })
	reg.GaugeFunc("pool_failed_disks"+label, func() float64 { return float64(p.Stats().FailedDisks) })
	reg.GaugeFunc("pool_slices"+label, func() float64 { return float64(p.Stats().SliceCount) })
	// Average queue depth by Little's law: aggregate device busy time
	// over elapsed virtual time is the mean number of outstanding ops.
	reg.GaugeFunc("pool_queue_depth"+label, func() float64 {
		now := p.clock.Now()
		if now == 0 {
			return 0
		}
		return float64(busy()) / float64(now)
	})
}

// SetDomains assigns each disk to a failure domain (a cluster node, a
// rack). AllocGroup spreads a placement group across as many domains as
// possible — replicas and EC shards of one group never share a domain
// while enough domains exist — and Relocate prefers domains that hold
// none of the group's surviving copies. A new pool is one domain, where
// every disk ties on that count and allocation falls to the least-used
// disk.
func (p *Pool) SetDomains(domainOf []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.domains {
		if i < len(domainOf) {
			p.domains[i] = domainOf[i]
		}
	}
}

func (p *Pool) domainOfLocked(id DiskID) int {
	if int(id) < 0 || int(id) >= len(p.domains) {
		return -1
	}
	return p.domains[id]
}

// DomainSlices counts the slices currently hosted in each failure
// domain (the "slices owned" gauge for per-node observability).
func (p *Pool) DomainSlices() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]int)
	for _, d := range p.disks {
		out[p.domainOfLocked(d.id)] += len(d.slices)
	}
	return out
}

// SetAvoid installs the placement veto consulted on every allocation
// (New installs one that vetoes nothing). A vetoed disk takes no new
// slices while any non-vetoed disk can serve; if every candidate is
// vetoed the allocator falls back to ignoring the veto rather than
// failing, so draining a whole pool never bricks allocation. The hook
// runs under the pool lock and must not call back into the pool.
func (p *Pool) SetAvoid(f func(DiskID) bool) { p.avoid.Store(&f) }

// DiskAvoided reports whether the placement veto currently excludes a
// disk — read paths (hedging, scrub, repair sources) use it to skip
// copies on suspect or draining nodes.
func (p *Pool) DiskAvoided(id DiskID) bool { return (*p.avoid.Load())(id) }

// DiskCount returns the number of disks, healthy or not.
func (p *Pool) DiskCount() int { return len(p.disks) }

// pickLocked selects, among healthy disks outside exclude, one in the
// domain holding fewest group-mates (domainUsed), which spreads a
// placement group across failure domains; ties fall to the least-used
// disk, the whole rule on a single-domain pool. Vetoed disks (SetAvoid)
// are skipped unless no other candidate exists.
func (p *Pool) pickLocked(exclude map[DiskID]bool, domainUsed map[int]int) *disk {
	avoid := *p.avoid.Load()
	for pass := 0; pass < 2; pass++ {
		var best *disk
		bestDom := 0
		for _, d := range p.disks {
			if d.failed || exclude[d.id] {
				continue
			}
			if pass == 0 && avoid(d.id) {
				continue
			}
			du := domainUsed[p.domainOfLocked(d.id)]
			if best == nil || du < bestDom || (du == bestDom && d.dev.Used() < best.dev.Used()) {
				best, bestDom = d, du
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

func (p *Pool) allocOnLocked(best *disk) (*Slice, error) {
	if best == nil {
		return nil, ErrNoSpace
	}
	if err := best.dev.Alloc(p.sliceSize); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	p.nextSlice++
	s := &Slice{ID: p.nextSlice, Disk: best.id, Size: p.sliceSize}
	p.slices[s.ID] = s
	best.slices[s.ID] = s
	return s, nil
}

// AllocGroup allocates n slices on n distinct healthy disks, spread
// across failure domains — the placement-group primitive the PLog layer
// uses for replication and erasure-coded stripes.
func (p *Pool) AllocGroup(n int) ([]*Slice, error) { return p.AllocGroupIn(nil, n) }

// AllocGroupIn allocates n slices, steering the i-th toward preferred
// failure domain pref[i] (the cluster's consistent-hash placement
// order). A preferred domain with no allocatable disk — failed, full,
// or vetoed — falls back to the regular domain-spread pick, so
// placement degrades gracefully as nodes die instead of failing.
func (p *Pool) AllocGroupIn(pref []int, n int) ([]*Slice, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	healthy := 0
	for _, d := range p.disks {
		if !d.failed {
			healthy++
		}
	}
	if healthy < n {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNotEnough, n, healthy)
	}
	exclude := make(map[DiskID]bool, n)
	domainUsed := make(map[int]int)
	out := make([]*Slice, 0, n)
	for i := 0; i < n; i++ {
		var best *disk
		if i < len(pref) {
			best = p.pickInDomainLocked(pref[i], exclude)
		}
		if best == nil {
			best = p.pickLocked(exclude, domainUsed)
		}
		s, err := p.allocOnLocked(best)
		if err != nil {
			for _, prev := range out {
				p.freeLocked(prev.ID)
			}
			return nil, err
		}
		exclude[s.Disk] = true
		domainUsed[p.domainOfLocked(s.Disk)]++
		out = append(out, s)
	}
	return out, nil
}

// pickInDomainLocked selects the least-used healthy, non-vetoed disk of
// one failure domain, or nil when the domain has no candidate.
func (p *Pool) pickInDomainLocked(domain int, exclude map[DiskID]bool) *disk {
	avoid := *p.avoid.Load()
	var best *disk
	for _, d := range p.disks {
		if d.failed || exclude[d.id] || p.domainOfLocked(d.id) != domain || avoid(d.id) {
			continue
		}
		if best == nil || d.dev.Used() < best.dev.Used() {
			best = d
		}
	}
	return best
}

// Free releases a slice's physical space.
func (p *Pool) Free(id SliceID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freeLocked(id)
}

func (p *Pool) freeLocked(id SliceID) error {
	s, ok := p.slices[id]
	if !ok {
		return ErrUnknownSlice
	}
	delete(p.slices, id)
	d := p.disks[s.Disk]
	delete(d.slices, id)
	d.dev.Free(s.Size)
	return nil
}

// Write charges a write of n bytes against the slice's disk and advances
// live-byte accounting. It returns the modelled device time. No bytes or
// device time are charged when the write fails (failed disk, injected
// fault), so callers never need to undo a failed Write.
func (p *Pool) Write(id SliceID, n int64) (time.Duration, error) {
	p.mu.Lock()
	s, ok := p.slices[id]
	if !ok {
		p.mu.Unlock()
		return 0, ErrUnknownSlice
	}
	d := p.disks[s.Disk]
	if d.failed {
		p.mu.Unlock()
		return 0, ErrDiskFailed
	}
	hook := p.hook
	diskID := s.Disk
	p.mu.Unlock()
	var extra time.Duration
	if hook != nil {
		e, err := hook.BeforeWrite(diskID, n)
		if err != nil {
			return 0, err
		}
		extra = e
	}
	p.mu.Lock()
	s.live += n
	p.mu.Unlock()
	return d.dev.Write(n) + extra, nil
}

// RollbackWrite reverses the byte and device-time accounting of one
// successful Write of n bytes — the all-or-nothing half of a redundant
// write whose sibling writes failed beyond the policy's fault tolerance.
func (p *Pool) RollbackWrite(id SliceID, n int64) {
	p.mu.Lock()
	s, ok := p.slices[id]
	if !ok {
		p.mu.Unlock()
		return
	}
	s.live -= n
	if s.live < 0 {
		s.live = 0
	}
	d := p.disks[s.Disk]
	p.mu.Unlock()
	d.dev.RefundWrite(n)
}

// Read charges a read of n bytes against the slice's disk and returns the
// modelled device time.
func (p *Pool) Read(id SliceID, n int64) (time.Duration, error) {
	p.mu.Lock()
	s, ok := p.slices[id]
	if !ok {
		p.mu.Unlock()
		return 0, ErrUnknownSlice
	}
	d := p.disks[s.Disk]
	if d.failed {
		p.mu.Unlock()
		return 0, ErrDiskFailed
	}
	hook := p.hook
	diskID := s.Disk
	p.mu.Unlock()
	var extra time.Duration
	if hook != nil {
		e, err := hook.BeforeRead(diskID, n)
		if err != nil {
			return 0, err
		}
		extra = e
	}
	return d.dev.Read(n) + extra, nil
}

// FailDisk marks a disk as failed. Its slices stay registered until
// Relocate migrates them, or ReviveDisk brings the disk back.
func (p *Pool) FailDisk(id DiskID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < 0 || int(id) >= len(p.disks) {
		return fmt.Errorf("pool: no disk %d", id)
	}
	p.disks[id].failed = true
	return nil
}

// ReviveDisk clears a disk's failed flag — a transient outage (a pulled
// cable, a crashed enclosure controller) ending. Slices that missed
// writes while the disk was down are still stale; the repair service
// catches them up.
func (p *Pool) ReviveDisk(id DiskID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < 0 || int(id) >= len(p.disks) {
		return fmt.Errorf("pool: no disk %d", id)
	}
	p.disks[id].failed = false
	return nil
}

// DiskFailed reports whether a disk is currently marked failed.
func (p *Pool) DiskFailed(id DiskID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < 0 || int(id) >= len(p.disks) {
		return false
	}
	return p.disks[id].failed
}

// AddDisks grows the pool at runtime with n fresh disks of the pool's
// device class, all assigned to the given failure domain — the storage
// a joining node contributes. Existing disks, domains, and slices are
// untouched; the new disk IDs (dense, continuing the existing range)
// are returned so the caller can extend its own disk→node table.
func (p *Pool) AddDisks(n int, domain int) []DiskID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		return nil
	}
	ids := make([]DiskID, 0, n)
	for i := 0; i < n; i++ {
		id := DiskID(len(p.disks))
		p.disks = append(p.disks, &disk{
			id:     id,
			dev:    sim.NewDeviceOf(fmt.Sprintf("%s-disk%d", p.name, int(id)), p.class),
			slices: make(map[SliceID]*Slice),
		})
		p.domains = append(p.domains, domain)
		ids = append(ids, id)
	}
	return ids
}

// RelocateTo moves a slice — keeping its identity and byte accounting,
// like Relocate — onto the least-used healthy disk among targets. It is
// the arc-migration half of a node join: the cluster picks the joining
// node's disks as targets and the repair plane rebuilds the copy there.
func (p *Pool) RelocateTo(id SliceID, targets map[DiskID]bool) (DiskID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.slices[id]
	if !ok {
		return 0, ErrUnknownSlice
	}
	var best *disk
	for _, d := range p.disks {
		if !targets[d.id] || d.failed || d.id == s.Disk {
			continue
		}
		if best == nil || d.dev.Used() < best.dev.Used() {
			best = d
		}
	}
	if best == nil {
		return 0, ErrNoSpace
	}
	if err := best.dev.Alloc(s.Size); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	old := p.disks[s.Disk]
	delete(old.slices, s.ID)
	old.dev.Free(s.Size)
	s.Disk = best.id
	best.slices[s.ID] = s
	return best.id, nil
}

// SliceLive reports a slice's live bytes, or -1 for an unknown slice —
// the movement-bound estimator's per-copy cost.
func (p *Pool) SliceLive(id SliceID) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.slices[id]
	if !ok {
		return -1
	}
	return s.live
}

// SliceDisk reports which disk currently hosts a slice.
func (p *Pool) SliceDisk(id SliceID) (DiskID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.slices[id]
	if !ok {
		return 0, ErrUnknownSlice
	}
	return s.Disk, nil
}

// Relocate moves a slice — keeping its identity and byte accounting —
// from its current disk onto a healthy disk not in exclude, the disks of
// the group's surviving copies. Like AllocGroup it prefers a failure
// domain that holds none of those copies and falls back to the one
// holding fewest, so a copy lost with one disk of a live node finds a
// home while any disk is free. A copy whose disk is vetoed (its node
// dead, suspect or draining) takes no such fallback: it moves only to a
// domain holding no copy, or fails and waits for its node, so no two
// copies come to share a domain that has a spare one coming back. It is
// the placement half of repairing a slice stranded on a dead disk; the
// caller charges the rebuild I/O separately via RepairSlice.
func (p *Pool) Relocate(id SliceID, exclude map[DiskID]bool) (DiskID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.slices[id]
	if !ok {
		return 0, ErrUnknownSlice
	}
	ex := make(map[DiskID]bool, len(exclude)+1)
	ex[s.Disk] = true
	used := make(map[int]int, len(exclude))
	for d := range exclude {
		ex[d] = true
		used[p.domainOfLocked(d)]++
	}
	best := p.pickLocked(ex, used)
	if best != nil && used[p.domainOfLocked(best.id)] > 0 && p.DiskAvoided(s.Disk) {
		return 0, fmt.Errorf("%w: no domain without a copy of the group is available", ErrNoSpace)
	}
	target, err := p.allocOnLocked(best)
	if err != nil {
		return 0, err
	}
	old := p.disks[s.Disk]
	// Fold the freshly allocated slice's space into the original slice's
	// identity so callers' references stay valid.
	delete(old.slices, s.ID)
	delete(p.slices, target.ID)
	nd := p.disks[target.Disk]
	delete(nd.slices, target.ID)
	s.Disk = target.Disk
	nd.slices[s.ID] = s
	old.dev.Free(s.Size)
	return target.Disk, nil
}

// RepairSlice charges the reconstruction I/O for rebuilding redundancy
// on the target slice: rebuild bytes are read from each source slice in
// parallel (cost is the slowest source) and written to the target,
// which then holds live bytes — the whole rebuilt copy, whatever the
// slice held before. Repair I/O passes through the fault hook, so
// repairs themselves can suffer injected faults and must be retried.
func (p *Pool) RepairSlice(target SliceID, sources []SliceID, rebuild, live int64) (time.Duration, error) {
	p.mu.Lock()
	ts, ok := p.slices[target]
	if !ok {
		p.mu.Unlock()
		return 0, ErrUnknownSlice
	}
	td := p.disks[ts.Disk]
	if td.failed {
		p.mu.Unlock()
		return 0, ErrDiskFailed
	}
	type src struct {
		dev *sim.Device
		id  DiskID
	}
	srcs := make([]src, 0, len(sources))
	for _, sid := range sources {
		ss, ok := p.slices[sid]
		if !ok {
			p.mu.Unlock()
			return 0, ErrUnknownSlice
		}
		sd := p.disks[ss.Disk]
		if sd.failed {
			p.mu.Unlock()
			return 0, ErrDiskFailed
		}
		srcs = append(srcs, src{sd.dev, ss.Disk})
	}
	hook := p.hook
	targetDisk := ts.Disk
	p.mu.Unlock()

	var cost time.Duration
	for _, sc := range srcs {
		var extra time.Duration
		if hook != nil {
			e, err := hook.BeforeRead(sc.id, rebuild)
			if err != nil {
				return 0, err
			}
			extra = e
		}
		if d := sc.dev.Read(rebuild) + extra; d > cost {
			cost = d
		}
	}
	var extra time.Duration
	if hook != nil {
		e, err := hook.BeforeWrite(targetDisk, rebuild)
		if err != nil {
			return cost, err
		}
		extra = e
	}
	cost += td.dev.Write(rebuild) + extra
	p.mu.Lock()
	ts.live = live
	p.reconstructed += rebuild
	p.mu.Unlock()
	return cost, nil
}

// DiskStats snapshots one disk's device counters (for accounting
// regression tests and the lakectl faults status view).
func (p *Pool) DiskStats(id DiskID) sim.DeviceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) < 0 || int(id) >= len(p.disks) {
		return sim.DeviceStats{}
	}
	return p.disks[id].dev.Stats()
}

// Stats returns a snapshot of pool accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Disks:         len(p.disks),
		SliceCount:    len(p.slices),
		Reconstructed: p.reconstructed,
	}
	for _, d := range p.disks {
		if d.failed {
			st.FailedDisks++
			continue
		}
		st.Capacity += d.dev.Spec().Capacity
		st.Used += d.dev.Used()
	}
	for _, s := range p.slices {
		st.Live += s.live
	}
	return st
}
