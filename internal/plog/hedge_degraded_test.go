package plog

import (
	"bytes"
	"testing"
	"time"
)

// With verification on, a corrupt secondary loses the race honestly: it
// is verified, quarantined, and the hedge falls through to the next
// healthy replica — which wins. Subsequent reads skip the quarantined
// copy outright.
func TestHedgeQuarantinesCorruptCandidateAndWinsViaNext(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8}
	m, l, payload := hedgeEnv(t, cfg, true)
	if ok, err := l.CorruptCopy(1, 0); err != nil || !ok {
		t.Fatalf("corrupt: %v %v", ok, err)
	}
	data, cost, err := l.Read(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if cost >= time.Millisecond {
		t.Fatalf("hedge via the healthy third replica did not win: cost=%v", cost)
	}
	st := m.HedgeStats()
	if st.Hedged == 0 || st.Wins == 0 {
		t.Fatalf("hedge stats: %+v", st)
	}
	if l.StaleBytes() == 0 {
		t.Fatal("corrupt hedge candidate was not quarantined")
	}
	// The quarantined copy is now missing the range entirely; the next
	// hedge must not even attempt it.
	data, _, err = l.Read(0, int64(len(payload)))
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("read after quarantine: %v", err)
	}
}

// A hedge against a dead disk is a guaranteed loss; the hedge must go
// straight to a live replica.
func TestHedgeSkipsFailedDisk(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8}
	m, l, payload := hedgeEnv(t, cfg, true)
	l.pool.FailDisk(l.Placement()[1].Disk)
	data, cost, err := l.Read(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if cost >= time.Millisecond {
		t.Fatalf("hedge did not win via the surviving replica: cost=%v", cost)
	}
	if st := m.HedgeStats(); st.Wins == 0 {
		t.Fatalf("hedge stats: %+v", st)
	}
}
