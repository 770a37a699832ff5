package pool

import (
	"testing"

	"streamlake/internal/sim"
)

func newDomainPool(t *testing.T, disks, nodes int) *Pool {
	t.Helper()
	p := New("domtest", sim.NewClock(), sim.NVMeSSD, disks, 1<<20)
	domains := make([]int, disks)
	for i := range domains {
		domains[i] = i % nodes
	}
	p.SetDomains(domains)
	return p
}

// domainOf reads a disk's failure domain, -1 on a single-domain pool.
func domainOf(p *Pool, id DiskID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.domainOfLocked(id)
}

func TestAllocGroupSpreadsDomains(t *testing.T) {
	p := newDomainPool(t, 9, 3)
	slices, err := p.AllocGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, s := range slices {
		d := domainOf(p, s.Disk)
		if seen[d] {
			t.Fatalf("two copies share domain %d: %+v", d, slices)
		}
		seen[d] = true
	}
}

func TestAllocGroupInHonorsPreference(t *testing.T) {
	p := newDomainPool(t, 9, 3)
	pref := []int{2, 0, 1}
	slices, err := p.AllocGroupIn(pref, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slices {
		if got := domainOf(p, s.Disk); got != pref[i] {
			t.Fatalf("slice %d landed in domain %d, want %d", i, got, pref[i])
		}
	}
}

func TestAllocGroupInFallsBackPastPreference(t *testing.T) {
	p := newDomainPool(t, 6, 3)
	// Ask for more copies than the preference names: the tail falls back
	// to the domain-spread picker.
	slices, err := p.AllocGroupIn([]int{1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := domainOf(p, slices[0].Disk); got != 1 {
		t.Fatalf("first slice in domain %d, want 1", got)
	}
	seen := make(map[int]bool)
	for _, s := range slices {
		d := domainOf(p, s.Disk)
		if seen[d] {
			t.Fatalf("two copies share domain %d", d)
		}
		seen[d] = true
	}
}

func TestAvoidVetoesAllocation(t *testing.T) {
	p := newDomainPool(t, 9, 3)
	p.SetAvoid(func(d DiskID) bool { return int(d)%3 == 1 }) // node 1 suspect
	slices, err := p.AllocGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slices {
		if domainOf(p, s.Disk) == 1 {
			t.Fatalf("allocated on avoided node: disk %d", s.Disk)
		}
	}
}

func TestAvoidFallbackWhenAllVetoed(t *testing.T) {
	p := newDomainPool(t, 6, 3)
	p.SetAvoid(func(DiskID) bool { return true })
	// Every disk vetoed: allocation must still succeed rather than
	// wedging writes (availability beats placement hygiene).
	if _, err := p.AllocGroup(3); err != nil {
		t.Fatalf("alloc with everything vetoed: %v", err)
	}
}

func TestDomainSlicesAccounting(t *testing.T) {
	p := newDomainPool(t, 6, 3)
	if _, err := p.AllocGroup(3); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range p.DomainSlices() {
		total += n
	}
	if total != 3 {
		t.Fatalf("domain slice accounting: %v", p.DomainSlices())
	}
}

func TestRelocateExcludesDomainMates(t *testing.T) {
	p := newDomainPool(t, 6, 3)
	slices, err := p.AllocGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	// Relocating away from slice 0's disk must also avoid slice 0's
	// domain-mate disks — otherwise the new copy would co-locate with
	// the failed node's other disks.
	excluded := slices[0].Disk
	dst, err := p.Relocate(slices[0].ID, map[DiskID]bool{excluded: true})
	if err != nil {
		t.Fatal(err)
	}
	if domainOf(p, dst) == domainOf(p, excluded) {
		t.Fatalf("relocation stayed in the failed domain: disk %d", dst)
	}
}
