package plog

import (
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

// EvacuateDisks relocates every live copy hosted on the given disks of
// p onto other failure domains — the drain leg of a node removal. The
// relocation preserves slice identity but carries no data: each moved
// copy is marked fully stale at its new home, so the ordinary repair
// plane rebuilds it from its surviving group peers with real, charged
// I/O. Copies that cannot relocate (no admissible target) stay put and
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
		full := l.red.shardSize(l.size)
		for i, s := range l.slices {
			if !disks[s.Disk] {
				continue
			}
			// Exclude the group's other copies' disks (and, inside
			// Relocate, their whole domains) so the evacuated copy lands
			// on a node that holds none of this group.
			exclude := make(map[pool.DiskID]bool, len(l.slices)-1)
			for j, o := range l.slices {
				if j != i {
					exclude[o.Disk] = true
				}
			}
			if _, err := p.Relocate(s.ID, exclude); err != nil {
				continue
			}
			moved++
			changed = true
			if full > 0 {
				if l.stale == nil {
					l.stale = make(map[int]int64)
				}
				if have := l.stale[i]; have < full {
					bytes += full - have
					l.stale[i] = full
				}
				l.imu.Lock()
				if i < len(l.copySums) && l.copySums[i] != nil {
					l.copySums[i] = make(map[int]uint32)
				}
				l.imu.Unlock()
			}
		}
		l.mu.Unlock()
		if changed {
			l.invalidateCached()
		}
	}
	return moved, bytes
}
