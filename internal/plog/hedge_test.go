package plog

import (
	"bytes"
	"testing"
	"time"

	"streamlake/internal/pool"
)

// slowDiskHook adds a fixed latency to every read of one disk — a
// sick-but-alive device, the scenario hedged reads exist for.
type slowDiskHook struct {
	disk  pool.DiskID
	extra time.Duration
}

func (h *slowDiskHook) BeforeWrite(disk pool.DiskID, n int64) (time.Duration, error) {
	return 0, nil
}

func (h *slowDiskHook) BeforeRead(disk pool.DiskID, n int64) (time.Duration, error) {
	if disk == h.disk {
		return h.extra, nil
	}
	return 0, nil
}

// hedgeEnv builds a 3-replica log with payload written and the hedge
// latency tracker warmed on healthy reads, then slows the primary
// copy's disk by 2ms.
func hedgeEnv(t *testing.T, cfg HedgeConfig, enable bool) (*Manager, *PLog, []byte) {
	t.Helper()
	m := newManager(t, 3)
	if enable {
		m.SetHedge(cfg)
	}
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("hedge me "), 512)
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // warm the latency tracker on healthy reads
		if _, _, err := l.Read(0, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
	}
	l.pool.SetFaultHook(&slowDiskHook{disk: l.slices[0].Disk, extra: 2 * time.Millisecond})
	return m, l, payload
}

func TestHedgedReadBeatsSlowPrimary(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8}
	m, l, payload := hedgeEnv(t, cfg, true)

	data, cost, err := l.Read(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("hedged read returned wrong bytes")
	}
	// The primary costs 2ms+; the hedge (threshold + healthy replica)
	// finishes far earlier and the requester observes that.
	if cost >= time.Millisecond {
		t.Fatalf("hedge did not cut requester latency: cost=%v", cost)
	}
	st := m.HedgeStats()
	if st.Hedged == 0 || st.Wins == 0 || st.Saved <= 0 {
		t.Fatalf("hedge stats: %+v", st)
	}

	// Same scenario with hedging disabled: the requester eats the slow
	// primary.
	_, l2, payload2 := hedgeEnv(t, HedgeConfig{}, false)
	_, cost2, err := l2.Read(0, int64(len(payload2)))
	if err != nil {
		t.Fatal(err)
	}
	if cost2 < 2*time.Millisecond {
		t.Fatalf("unhedged read should eat the 2ms primary: cost=%v", cost2)
	}
}

// TestHedgeChargesBothReadsToDevices: hedging trades extra device time
// for requester latency — the win must not refund the primary's I/O.
func TestHedgeChargesBothReadsToDevices(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8}
	_, l, payload := hedgeEnv(t, cfg, true)
	readBytes := func() (total int64) {
		for i := 0; i < l.pool.DiskCount(); i++ {
			total += l.pool.DiskStats(pool.DiskID(i)).ReadBytes
		}
		return total
	}
	before := readBytes()
	if _, _, err := l.Read(0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	gotBytes := readBytes() - before
	if want := 2 * int64(len(payload)); gotBytes != want {
		t.Fatalf("hedged read charged %d device bytes, want %d (primary + hedge)", gotBytes, want)
	}
}

// TestHedgeColdTrackerStaysOff: until MinSamples primary reads are
// observed, nothing hedges no matter how slow the primary is.
func TestHedgeColdTrackerStaysOff(t *testing.T) {
	m := newManager(t, 3)
	m.SetHedge(HedgeConfig{Enabled: true, MinSamples: 1000})
	l, err := m.Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("cold start")
	if _, _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	l.pool.SetFaultHook(&slowDiskHook{disk: l.slices[0].Disk, extra: 2 * time.Millisecond})
	if _, cost, err := l.Read(0, int64(len(payload))); err != nil || cost < 2*time.Millisecond {
		t.Fatalf("cold tracker hedged anyway: cost=%v err=%v", cost, err)
	}
	if st := m.HedgeStats(); st.Hedged != 0 {
		t.Fatalf("cold tracker hedged: %+v", st)
	}
}
