package sim

import (
	"sync"
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Advance(-time.Second) // must be ignored
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("negative advance moved clock to %v", got)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8000*time.Microsecond {
		t.Fatalf("concurrent advance lost updates: %v", got)
	}
}

func TestDeviceCostModel(t *testing.T) {
	d := NewDeviceOf("ssd0", NVMeSSD)
	spec := d.Spec()
	// A zero-byte read costs exactly the fixed latency.
	if got := d.Read(0); got != spec.ReadLatency {
		t.Fatalf("zero-byte read cost %v, want %v", got, spec.ReadLatency)
	}
	// A large read is dominated by the bandwidth term.
	big := d.Read(spec.ReadBandwidth) // one second of data
	if big < time.Second || big > time.Second+spec.ReadLatency+time.Millisecond {
		t.Fatalf("1s-of-data read cost %v", big)
	}
	st := d.Stats()
	if st.ReadOps != 2 || st.ReadBytes != spec.ReadBandwidth {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeviceClassOrdering(t *testing.T) {
	// The whole reproduction leans on SCM < SSD < HDD latency and
	// RDMA < TCP; make that calibration explicit.
	n := int64(4096)
	scm := NewDeviceOf("scm", SCM).Read(n)
	ssd := NewDeviceOf("ssd", NVMeSSD).Read(n)
	hdd := NewDeviceOf("hdd", SASHDD).Read(n)
	if !(scm < ssd && ssd < hdd) {
		t.Fatalf("latency ordering violated: scm=%v ssd=%v hdd=%v", scm, ssd, hdd)
	}
	rdma := NewDeviceOf("rdma", NetRDMA).Write(n)
	tcp := NewDeviceOf("tcp", Net10GbE).Write(n)
	if rdma >= tcp {
		t.Fatalf("rdma (%v) should beat tcp (%v)", rdma, tcp)
	}
}

func TestDeviceCapacity(t *testing.T) {
	d := NewDevice("tiny", DeviceSpec{Class: NVMeSSD, Capacity: 100})
	if err := d.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(60); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	d.Free(60)
	if err := d.Alloc(100); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	d.Free(1000)
	if d.Used() != 0 {
		t.Fatalf("Used() = %d after over-free, want 0", d.Used())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 100, 1.1)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	// Head must dominate tail under skew.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[97] + counts[98] + counts[99]
	if head <= tail*3 {
		t.Fatalf("zipf not skewed: head=%d tail=%d", head, tail)
	}
}

func TestZipfUniform(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform zipf bucket %d has %d samples", i, c)
		}
	}
}
