package resil

import (
	"testing"
	"time"

	"streamlake/internal/sim"
)

func TestCtxNilIsNoOp(t *testing.T) {
	var rc *Ctx
	if err := rc.Check(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Charge(time.Hour); err != nil {
		t.Fatal(err)
	}
	if rc.Now() != 0 {
		t.Fatal("nil ctx leaked state")
	}
}

func TestCtxChargesAgainstDeadline(t *testing.T) {
	rc := NewCtx(10*time.Millisecond, 5*time.Millisecond)
	if err := rc.Charge(2 * time.Millisecond); err != nil {
		t.Fatalf("under budget: %v", err)
	}
	if got := rc.Now(); got != 12*time.Millisecond {
		t.Fatalf("effective now: %v", got)
	}
	// Exactly at the deadline is still in time.
	if err := rc.Charge(3 * time.Millisecond); err != nil {
		t.Fatalf("at the deadline: %v", err)
	}
	// The charge that pushes past the deadline still lands: time spent
	// is spent, the caller just learns it was too much.
	if err := rc.Charge(time.Millisecond); err != ErrDeadlineExceeded {
		t.Fatalf("over budget: %v", err)
	}
	if got := rc.Now(); got != 16*time.Millisecond {
		t.Fatalf("effective now after overrun: %v", got)
	}
	if err := rc.Check(); err != ErrDeadlineExceeded {
		t.Fatalf("check after overrun: %v", err)
	}
}

func TestCtxNoDeadlineTracksCostOnly(t *testing.T) {
	rc := NewCtx(time.Millisecond, 0)
	if err := rc.Charge(time.Hour); err != nil {
		t.Fatalf("deadline-free ctx errored: %v", err)
	}
	if rc.Now() != time.Millisecond+time.Hour {
		t.Fatalf("effective now: %v", rc.Now())
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a := sim.NewRNG(99)
	b := sim.NewRNG(99)
	for attempt := 0; attempt < 8; attempt++ {
		d1 := Backoff(attempt, a)
		d2 := Backoff(attempt, b)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, d1, d2)
		}
		// Equal jitter: the wait is in [step/2, step] for the attempt's
		// exponential step, and never exceeds the cap.
		step := min(backoffBase*time.Duration(1)<<attempt, backoffCap)
		if d1 < step/2 || d1 > step {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, step/2, step)
		}
	}
}

func TestBackoffNilRNGIsFullStep(t *testing.T) {
	if got := Backoff(0, nil); got != backoffBase {
		t.Fatalf("nil rng backoff: %v", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	var b Breaker
	now := time.Duration(0)
	if b.State() != Closed {
		t.Fatal("new breaker not closed")
	}
	// Four failures inside the 50ms window stay under the threshold of 5.
	for i := 0; i < 4; i++ {
		if b.Failure(now) {
			t.Fatal("tripped early")
		}
		now += 10 * time.Millisecond
	}
	if !b.Failure(now) {
		t.Fatal("fifth failure within the window did not trip")
	}
	if b.State() != Open {
		t.Fatalf("state after trip: %v", b.State())
	}
	// Open sheds until the cooldown elapses.
	if err := b.Allow(now + time.Millisecond); err != ErrBreakerOpen {
		t.Fatalf("open breaker admitted: %v", err)
	}
	if got := b.RetryAfter(now + time.Millisecond); got != 19*time.Millisecond {
		t.Fatalf("retry after: %v", got)
	}
	// Cooldown over: exactly one probe goes through, the rest shed.
	now += 20 * time.Millisecond
	if err := b.Allow(now); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if err := b.Allow(now); err != ErrBreakerOpen {
		t.Fatalf("second probe admitted: %v", err)
	}
	// Probe failure snaps back open and restarts the cooldown.
	if !b.Failure(now) {
		t.Fatal("probe failure did not reopen")
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe: %v", b.State())
	}
	// Next probe succeeds: closed, and the failure window is clear.
	now += 20 * time.Millisecond
	if err := b.Allow(now); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Success(now)
	if b.State() != Closed {
		t.Fatalf("state after successful probe: %v", b.State())
	}
	if b.Failure(now) {
		t.Fatal("window not cleared by recovery")
	}
	st := b.Stats()
	if st.Trips != 2 || st.Probes != 2 || st.Sheds != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	var b Breaker
	for i := 0; i < 4; i++ {
		b.Failure(0)
	}
	// The first four failures age out of the 50ms window before the
	// fifth lands, so the breaker never sees five concurrent failures.
	if b.Failure(51 * time.Millisecond) {
		t.Fatal("stale failure counted toward the threshold")
	}
	if b.State() != Closed {
		t.Fatalf("state: %v", b.State())
	}
}
