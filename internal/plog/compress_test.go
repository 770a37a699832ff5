package plog

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"streamlake/internal/cache"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// compressible builds a run-and-text-heavy payload the codecs win on.
func compressible(n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, bytes.Repeat([]byte{0}, 64)...)
		out = append(out, []byte(fmt.Sprintf("columnar-row-%08d|", len(out)))...)
	}
	return out[:n]
}

func TestMigrateCompressesOntoColdPool(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := compressible(64 << 10)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	rawPhys := l.PhysicalBytes()
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if !l.Compressed() {
		t.Fatal("log not marked compressed after migrating to the cold pool")
	}
	// Bytes-on-device: the cold pool holds the compressed copies.
	live := hdd.Stats().Live
	if live == 0 || live >= int64(len(payload))*3 {
		t.Fatalf("cold live bytes %d, want 0 < live < raw %d", live, int64(len(payload))*3)
	}
	if live > int64(len(payload))*3*7/10 {
		t.Fatalf("compressible payload only shrank to %d of %d device bytes", live, int64(len(payload))*3)
	}
	if got := l.PhysicalBytes(); got != live {
		t.Fatalf("PhysicalBytes %d != cold live %d", got, live)
	}
	if got := l.PhysicalBytes(); got >= rawPhys {
		t.Fatalf("PhysicalBytes did not shrink: %d -> %d", rawPhys, got)
	}
	st := m.CompressionStats()
	if st.CompressedLogs != 1 || st.RawBytes != int64(len(payload)) || st.CompressedBytes >= st.RawBytes {
		t.Fatalf("compression stats: %+v", st)
	}

	// Reads stay bit-identical and CRC-verified over uncompressed bytes.
	before := l.IntegrityStats().Verifications
	got, cost, err := l.Read(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compressed read differs from the appended payload")
	}
	if cost <= 0 {
		t.Fatal("compressed read charged nothing")
	}
	integ := l.IntegrityStats()
	if integ.Verifications <= before {
		t.Fatal("compressed read skipped checksum verification")
	}
	if integ.Mismatches != 0 {
		t.Fatalf("%d checksum mismatches on clean compressed data", integ.Mismatches)
	}
	raw := int64(len(payload)) * 3
	t.Logf("cold tier holds %d of %d raw device bytes (%.2fx), %d verifications, 0 mismatches",
		live, raw, float64(live)/float64(raw), integ.Verifications)
	// The device read moved compressed bytes, not raw ones.
	var devRead int64
	for i := 0; i < hdd.DiskCount(); i++ {
		devRead += hdd.DiskStats(pool.DiskID(i)).ReadBytes
	}
	if devRead == 0 || devRead >= int64(len(payload)) {
		t.Fatalf("cold read moved %d device bytes, want 0 < bytes < raw %d", devRead, len(payload))
	}
}

func TestMigrateDecompressesOffColdPool(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	payload := compressible(32 << 10)
	l.Append(payload)
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Migrate(m.Pool()); err != nil {
		t.Fatal(err)
	}
	if l.Compressed() {
		t.Fatal("log still marked compressed after migrating off the cold pool")
	}
	if got := m.Pool().Stats().Live; got != int64(len(payload))*3 {
		t.Fatalf("hot pool live %d after promote, want raw %d", got, int64(len(payload))*3)
	}
	if got := l.PhysicalBytes(); got != int64(len(payload))*3 {
		t.Fatalf("PhysicalBytes %d after promote, want raw %d", got, int64(len(payload))*3)
	}
	got, _, err := l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("promoted read mismatch (err=%v)", err)
	}
	poolEmpty(t, hdd)
}

func TestIncompressibleExtentsBailOutRaw(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	rng := sim.NewRNG(99)
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	l.Append(payload)
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	st := m.CompressionStats()
	if st.NoneExtents != 1 || st.RLEExtents+st.FlateExtents != 0 {
		t.Fatalf("random payload should bail out to None: %+v", st)
	}
	if st.CompressedBytes != st.RawBytes {
		t.Fatalf("bailout changed stored bytes: %+v", st)
	}
	if got := hdd.Stats().Live; got != int64(len(payload))*3 {
		t.Fatalf("cold live %d, want raw %d", got, int64(len(payload))*3)
	}
	got, _, err := l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("bailed-out read mismatch (err=%v)", err)
	}
}

// Scrub on a compressed log reads compressed bytes, still verifies the
// CRC over uncompressed data, and finds exactly the corruption it would
// have found raw.
func TestScrubCompressedLogFindsCorruption(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	payload := compressible(32 << 10)
	l.Append(payload)
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if ok, err := l.CorruptCopy(1, 0); err != nil || !ok {
		t.Fatalf("corrupt: %v %v", ok, err)
	}
	res := l.Scrub()
	if res.Mismatches != 1 {
		t.Fatalf("scrub found %d mismatches, want 1", res.Mismatches)
	}
	if res.Bytes == 0 || res.Bytes >= int64(len(payload))*3 {
		t.Fatalf("scrub read %d physical bytes, want compressed (< raw %d)", res.Bytes, int64(len(payload))*3)
	}
	// The quarantined copy repairs from compressed peers and the log
	// reads bit-exact afterwards.
	if _, _, err := l.RepairStale(); err != nil {
		t.Fatal(err)
	}
	if !l.FullyRedundant() {
		t.Fatal("repair left stale slices")
	}
	got, _, err := l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-repair read mismatch (err=%v)", err)
	}
	if res := l.Scrub(); res.Mismatches != 0 {
		t.Fatalf("post-repair scrub: %+v", res)
	}
}

// Regression: Migrate used to charge zero read I/O when the source disk
// was dead, even though the bytes must be rebuilt from the surviving
// copies. The reconstruction reads now land on the survivors.
func TestMigrateChargesReconstructionOnDeadSourceDisk(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	payload := compressible(16 << 10)
	l.Append(payload)
	n := int64(len(payload))

	deadDisk := l.Placement()[1].Disk
	if err := m.Pool().FailDisk(deadDisk); err != nil {
		t.Fatal(err)
	}
	readsBefore := make(map[pool.DiskID]int64)
	for i := 0; i < m.Pool().DiskCount(); i++ {
		readsBefore[pool.DiskID(i)] = m.Pool().DiskStats(pool.DiskID(i)).ReadBytes
	}
	cost, err := l.Migrate(hdd)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("migrate off a dead disk charged nothing")
	}
	if got := m.Pool().DiskStats(deadDisk).ReadBytes - readsBefore[deadDisk]; got != 0 {
		t.Fatalf("dead disk served %d read bytes", got)
	}
	// The two healthy copies each read their own bytes, and one of them
	// additionally served the dead copy's reconstruction read.
	var survivorReads int64
	for i := 0; i < m.Pool().DiskCount(); i++ {
		id := pool.DiskID(i)
		if id == deadDisk {
			continue
		}
		survivorReads += m.Pool().DiskStats(id).ReadBytes - readsBefore[id]
	}
	if want := 3 * n; survivorReads != want {
		t.Fatalf("survivors served %d read bytes, want %d (2 own copies + 1 reconstruction)", survivorReads, want)
	}
	// The destination still received all three copies, compressed.
	if got, want := hdd.Stats().Live, 3*m.CompressionStats().CompressedBytes; got != want || want >= 3*n {
		t.Fatalf("cold live %d, want %d (three compressed copies of %d raw bytes)", got, want, n)
	}
	got, _, err := l.Read(0, n)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-migrate read mismatch (err=%v)", err)
	}
}

// The EC flavor of the dead-source regression: rebuilding one lost
// column charges K parallel column reads against the surviving disks.
func TestMigrateDeadSourceECChargesKColumnReads(t *testing.T) {
	p := pool.New("plogtest-ec", sim.NewClock(), sim.NVMeSSD, 6, 1<<20)
	m := NewManager(p, 1<<20)
	hdd := newHDDPool(6)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	payload := compressible(16 << 10)
	l.Append(payload)
	col := l.red.shardSize(int64(len(payload)))

	deadDisk := l.Placement()[0].Disk
	if err := p.FailDisk(deadDisk); err != nil {
		t.Fatal(err)
	}
	readsBefore := make(map[pool.DiskID]int64)
	for i := 0; i < p.DiskCount(); i++ {
		readsBefore[pool.DiskID(i)] = p.DiskStats(pool.DiskID(i)).ReadBytes
	}
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	var survivorReads int64
	for i := 0; i < p.DiskCount(); i++ {
		id := pool.DiskID(i)
		if id == deadDisk {
			continue
		}
		survivorReads += p.DiskStats(id).ReadBytes - readsBefore[id]
	}
	// 5 surviving columns read their own col bytes + K reconstruction
	// reads of col bytes each for the dead column.
	if want := 5*col + 4*col; survivorReads != want {
		t.Fatalf("survivors served %d read bytes, want %d", survivorReads, want)
	}
}

// Regression: a cache fill racing Migrate could re-admit bytes keyed to
// the old placement after invalidateCached ran. The fill-version guard
// makes the pre-migrate fill lose, deterministically.
func TestStaleFillLosesToInvalidation(t *testing.T) {
	m := newManager(t, 3)
	c := cache.New(cache.Config{DRAMBytes: 256 << 10, SCMBytes: 1 << 20})
	m.SetCache(c)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	payload := compressible(8 << 10)
	l.Append(payload)
	n := int64(len(payload))
	key := l.cacheKey(0, n)

	// Interleave by hand: snapshot the fill version (as readThrough
	// does before its device read), run the device read, then let a
	// migration invalidate before the fill lands.
	ver := l.fillVersion()
	data, _, err := l.ReadDirect(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	if l.tryFill(c, key, data, ver) {
		t.Fatal("pre-migrate fill was admitted after the invalidation")
	}
	if c.Contains(key) {
		t.Fatal("stale fill resident after migrate invalidated the log")
	}
	// A fresh read against the new placement fills normally.
	if _, _, err := l.Read(0, n); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(key) {
		t.Fatal("post-migrate fill missing")
	}
}

// The -race flavor: concurrent reads racing migrations back and forth
// must never leave a fill admitted across an invalidation, and never
// trip the race detector.
func TestConcurrentReadMigrateFillGuard(t *testing.T) {
	m := newManager(t, 6)
	c := cache.New(cache.Config{DRAMBytes: 256 << 10, SCMBytes: 1 << 20})
	m.SetCache(c)
	hdd := newHDDPool(6)
	l, _ := m.Create(ReplicateN(3))
	payload := compressible(8 << 10)
	l.Append(payload)
	n := int64(len(payload))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := l.Read(0, n)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Error("read returned wrong bytes during migration churn")
					return
				}
			}
		}()
	}
	pools := []*pool.Pool{hdd, m.Pool()}
	for i := 0; i < 40; i++ {
		if _, err := l.Migrate(pools[i%2]); err != nil {
			t.Fatalf("migrate %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// Appends after a compressing migration land raw (the negotiated set
// only covers extents that existed at migration time) and reads across
// the boundary stay bit-exact.
func TestAppendAfterCompressingMigrate(t *testing.T) {
	m := newManager(t, 3)
	hdd := newHDDPool(3)
	l, _ := m.Create(ReplicateN(3))
	first := compressible(8 << 10)
	l.Append(first)
	if _, err := l.Migrate(hdd); err != nil {
		t.Fatal(err)
	}
	second := compressible(4 << 10)
	if _, _, err := l.Append(second); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), first...), second...)
	got, _, err := l.Read(0, int64(len(want)))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cross-boundary read mismatch (err=%v)", err)
	}
	if res := l.Scrub(); res.Mismatches != 0 {
		t.Fatalf("scrub: %+v", res)
	}
}
