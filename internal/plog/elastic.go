package plog

import (
	"slices"
	"sort"

	"streamlake/internal/pool"
)

// Elastic-membership support (elastic.go): the cluster layer's node
// removal path relocates every placement copy off the leaving node
// before its tombstone commits, and the per-node backlog gauges need
// stale bytes attributed through each pool's own disk space — disk IDs
// alias across pools, and after runtime joins they no longer follow the
// birth i%N rule.

// StaleByDiskIn sums the missing redundancy bytes per hosting disk,
// counting only logs placed on p, which keeps SSD and HDD disk IDs
// from aliasing in per-node backlog attribution.
func (m *Manager) StaleByDiskIn(p *pool.Pool) map[pool.DiskID]int64 {
	out := make(map[pool.DiskID]int64)
	for _, l := range m.StaleLogs() {
		l.mu.RLock()
		onPool := !l.destroyed && l.pool == p
		l.mu.RUnlock()
		if !onPool {
			continue
		}
		for _, si := range l.Stale() {
			out[si.Disk] += si.Bytes
		}
	}
	return out
}

// Spares reports whether the log holding slice id of p could lose that
// copy and still rebuild it from its other fresh copies. A slice no log
// of m holds is spared.
func (m *Manager) Spares(p *pool.Pool, id pool.SliceID) bool {
	for _, l := range m.sortedLogs() {
		l.mu.RLock()
		i := slices.IndexFunc(l.slices, func(s *pool.Slice) bool { return s.ID == id })
		short := l.pool == p && i >= 0 && l.fresh(i, nil) < l.red.required()
		l.mu.RUnlock()
		if short {
			return false
		}
	}
	return true
}

// EvacuateDisks relocates every live copy hosted on the given disks of
// p onto other failure domains — the drain leg of a node removal. The
// relocation preserves slice identity but carries no data: each moved
// copy is marked fully stale at its new home, so the ordinary repair
// plane rebuilds it from its surviving group peers with real, charged
// I/O; one its group cannot spare is copied across whole instead.
// Copies that cannot relocate (no admissible target) stay put and
// stay healthy; the caller retries after conditions improve. Logs are
// visited in ID order so seeded runs replay bit-identically. Returns
// the copies moved and the stale bytes queued for re-replication.
func (m *Manager) EvacuateDisks(p *pool.Pool, disks map[pool.DiskID]bool) (moved int, bytes int64) {
	m.mu.Lock()
	logs := make([]*PLog, 0, len(m.logs))
	for _, l := range m.logs {
		logs = append(logs, l)
	}
	m.mu.Unlock()
	sort.Slice(logs, func(i, j int) bool { return logs[i].id < logs[j].id })
	for _, l := range logs {
		l.mu.Lock()
		if l.destroyed || l.pool != p {
			l.mu.Unlock()
			continue
		}
		changed := false
		for i, s := range l.slices {
			if !disks[s.Disk] {
				continue
			}
			// Exclude the group's other copies' disks: Relocate then
			// prefers a node that holds none of this group, and the
			// leaving node's own disks are vetoed as draining.
			exclude := make(map[pool.DiskID]bool, len(l.slices)-1)
			for j, o := range l.slices {
				if j != i {
					exclude[o.Disk] = true
				}
			}
			l.imu.Lock()
			stale, held, missing := l.copyBytesLocked(i, l.ecomp)
			whole := !l.staleLocked(i)
			l.imu.Unlock()
			full := held + missing
			// A copy its group cannot spare moves with its bytes, read
			// from the leaving node, which still serves them.
			carry := full > 0 && whole && l.fresh(i, nil) < l.red.required()
			if _, err := p.Relocate(s.ID, exclude); err != nil {
				// Every other domain holds a copy: share one rather than
				// strand the copy on disks the tombstone fails.
				others := make(map[pool.DiskID]bool)
				for d := pool.DiskID(0); int(d) < p.DiskCount(); d++ {
					others[d] = !exclude[d] && !disks[d]
				}
				if _, err := p.RelocateTo(s.ID, others); err != nil {
					continue
				}
			}
			moved++
			changed = true
			delete(l.unreached, i)
			if carry {
				if _, err := p.RepairSlice(s.ID, nil, full, full); err == nil {
					continue
				}
			}
			if full > 0 {
				l.imu.Lock()
				l.copySums[i] = make(map[int]uint32)
				after, _, _ := l.copyBytesLocked(i, l.ecomp)
				l.imu.Unlock()
				bytes += after - stale
			}
		}
		l.mu.Unlock()
		if changed {
			l.invalidateCached()
		}
	}
	return moved, bytes
}
