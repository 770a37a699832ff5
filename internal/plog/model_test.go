package plog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"streamlake/internal/compress"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// logModel is the trivially-correct oracle the log is checked against:
// the flat byte slice a PLog used to be, plus where each appended
// payload starts and, on the cold tier, what it compressed to.
type logModel struct {
	red    Redundancy
	flat   []byte
	starts []int64 // starts[e] is extent e's offset
	lens   []int64
	clens  []int64 // compressed length of the extents a compressing migrate covered; nil when raw
	sealed bool
}

func (m *logModel) size() int64 { return int64(len(m.flat)) }

// borrow is a Read result kept past the call, with where it came from.
type borrow struct {
	off  int64
	data []byte
}

// physical is the log's footprint with every copy whole: each copy holds
// one copy or shard column of every extent at its stored length, as the
// appends charge the pool.
func (m *logModel) physical() int64 {
	var per int64
	for e, n := range m.lens {
		if e < len(m.clens) {
			n = m.clens[e]
		}
		per += m.red.shardSize(n)
	}
	return per * int64(m.red.Width())
}

// modelPayload draws a payload of 0..64 KiB: runs (RLE-friendly), text-like
// (flate-friendly) or noise (incompressible), so a compressing migrate
// negotiates every codec.
func modelPayload(rng *sim.RNG) []byte {
	n := 0
	switch rng.Intn(5) {
	case 0: // empty
	case 1:
		n = 1 + rng.Intn(64)
	default:
		n = 1 + rng.Intn(64<<10)
	}
	out := make([]byte, n)
	switch rng.Intn(3) {
	case 0:
		for i := range out {
			out[i] = byte(i / 997)
		}
	case 1:
		for i := range out {
			out[i] = "the log is its extents "[(i+n)%23]
		}
	default:
		for i := range out {
			out[i] = byte(rng.Uint64())
		}
	}
	return out
}

// TestModelConformance drives seeded random operation sequences against
// a PLog and the flat-slice model side by side: bytes, Size,
// PhysicalBytes and returned offsets agree after every step, the pools'
// live bytes equal the model's footprint after every step that leaves
// the log fully redundant, and every borrow handed out along the way
// still reads true at the end.
func TestModelConformance(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 50
	}
	t.Logf("%d steps per run", steps)
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%+v/seed=%d", red, seed), func(t *testing.T) {
				runModel(t, red, seed, steps)
			})
		}
	}
}

func runModel(t *testing.T, red Redundancy, seed uint64, steps int) {
	const capacity = 3 << 20
	clock := sim.NewClock()
	hot := pool.New("hot", clock, sim.NVMeSSD, 8, 0)
	cold := pool.New("cold", clock, sim.SASHDD, 8, 0)
	mgr := NewManager(hot, capacity)
	l, err := mgr.Create(red)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	model := &logModel{red: red}
	var borrows []borrow
	// dirty is the set of copies with an unrepaired fault; a read serves a
	// range from whole copies, so it stays within the policy's tolerance.
	dirty := map[int]bool{}
	tolerance := red.M // disk losses the policy survives
	if red.Kind == Replicate {
		tolerance = red.Replicas - 1
	}

	read := func(off, n int64) []byte {
		t.Helper()
		got, _, err := l.Read(off, n)
		if err != nil {
			t.Fatalf("Read(%d, %d) of %d bytes: %v", off, n, model.size(), err)
		}
		if !bytes.Equal(got, model.flat[off:off+n]) {
			t.Fatalf("Read(%d, %d) differs from the model", off, n)
		}
		borrows = append(borrows, borrow{off, got})
		return got
	}
	heal := func() {
		t.Helper()
		for round := 0; ; round++ {
			res := l.Scrub()
			if res.Mismatches == 0 && l.FullyRedundant() {
				break
			}
			if round == 3 {
				t.Fatalf("log not clean after %d scrub+repair rounds: stale %d", round, l.StaleBytes())
			}
			if _, _, err := l.RepairStale(); err != nil {
				t.Fatalf("RepairStale: %v", err)
			}
		}
		clear(dirty)
	}
	fault := func(i int) {
		if !dirty[i] && len(dirty) == tolerance {
			heal()
		}
		dirty[i] = true
	}
	appendBatch := func() {
		t.Helper()
		payloads := make([][]byte, 1+rng.Intn(4))
		var logical int64
		for i := range payloads {
			payloads[i] = modelPayload(rng)
			logical += int64(len(payloads[i]))
		}
		offs, _, err := l.AppendBatch(payloads, nil)
		switch {
		case model.sealed:
			if !errors.Is(err, ErrSealed) {
				t.Fatalf("append to a sealed log: %v", err)
			}
		case model.size()+logical > capacity:
			if !errors.Is(err, ErrFull) {
				t.Fatalf("append past capacity: %v", err)
			}
		case err != nil:
			t.Fatalf("AppendBatch: %v", err)
		default:
			for i, p := range payloads {
				if offs[i] != model.size() {
					t.Fatalf("payload %d landed at %d, model says %d", i, offs[i], model.size())
				}
				model.starts = append(model.starts, model.size())
				model.lens = append(model.lens, int64(len(p)))
				model.flat = append(model.flat, p...)
				// The log owns a copy: scribbling on the caller's buffer
				// after the append must not reach it.
				for j := range p {
					p[j] = ^p[j]
				}
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(12); {
		case op < 4:
			appendBatch()
		case op == 4 && len(model.starts) > 0:
			// A degraded append: one placement disk down, revived after.
			i := rng.Intn(red.Width())
			fault(i)
			disk := l.slices[i].Disk
			l.pool.FailDisk(disk)
			appendBatch()
			l.pool.ReviveDisk(disk)
		case op == 5 && len(model.starts) > 0:
			// Silent corruption on one copy of one extent, then a read of
			// that extent: verification falls back to a healthy copy.
			e, i := rng.Intn(len(model.starts)), rng.Intn(red.Width())
			fault(i)
			if _, err := l.CorruptCopy(i, e); err != nil {
				t.Fatal(err)
			}
			read(model.starts[e], model.lens[e])
		case op == 6:
			heal()
		case op == 7:
			// Onto the compressing cold pool, or back.
			dst := cold
			if l.pool == cold {
				dst = hot
			}
			if _, err := l.Migrate(dst); err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			model.clens = nil
			if dst == cold {
				model.clens = make([]int64, len(model.starts))
				for e, off := range model.starts {
					_, model.clens[e] = compress.Negotiate(model.flat[off : off+model.lens[e]])
				}
			}
			if l.Compressed() != (dst == cold) {
				t.Fatalf("Compressed() = %v after migrating to %s", l.Compressed(), dst.Name())
			}
		case op == 8 && step > steps/2:
			l.Seal()
			model.sealed = true
		case len(model.starts) > 0:
			// Reads: inside one extent, spanning several, empty.
			e := rng.Intn(len(model.starts))
			if n := model.lens[e]; n > 0 {
				from := rng.Int63n(n)
				a := read(model.starts[e]+from, 1+rng.Int63n(n-from))
				b := read(model.starts[e]+from, int64(len(a)))
				if &a[0] != &b[0] || cap(a) != len(a) {
					t.Fatalf("read inside extent %d is not a capacity-capped borrow", e)
				}
			}
			if from := model.starts[e]; from < model.size() {
				read(from+rng.Int63n(model.size()-from), 0)
				read(from, 1+rng.Int63n(model.size()-from))
			}
		}

		// After every step: size, footprint, and the whole log.
		if l.Size() != model.size() {
			t.Fatalf("step %d: Size %d, model %d", step, l.Size(), model.size())
		}
		if got, want := l.PhysicalBytes(), model.physical(); got != want {
			t.Fatalf("step %d: PhysicalBytes %d, model %d", step, got, want)
		}
		if l.FullyRedundant() {
			if live := hot.Stats().Live + cold.Stats().Live; live != model.physical() {
				t.Fatalf("step %d: fully redundant log, pools hold %d live bytes, model %d", step, live, model.physical())
			}
		}
		read(0, model.size())
		for _, r := range []struct{ off, n int64 }{{-1, 1}, {0, -1}, {0, model.size() + 1}, {model.size(), 1}} {
			if _, _, err := l.Read(r.off, r.n); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("step %d: Read(%d, %d) of %d bytes: %v, want ErrOutOfRange", step, r.off, r.n, model.size(), err)
			}
		}
	}
	heal()
	if red.Kind == ErasureCode {
		if err := l.VerifyReconstruct([]int{1, 4}); err != nil {
			t.Fatalf("VerifyReconstruct: %v", err)
		}
	}
	for _, b := range borrows {
		if !bytes.Equal(b.data, model.flat[b.off:b.off+int64(len(b.data))]) {
			t.Fatalf("a borrow of [%d,+%d) changed after it was handed out", b.off, len(b.data))
		}
	}
}

// TestBorrowsStableUnderConcurrentAppends is the -race half: one
// appender grows the log while readers take borrows of whatever is
// there, hold them, and keep re-checking them. A byte's value is a
// function of its offset, so readers need no shared model.
func TestBorrowsStableUnderConcurrentAppends(t *testing.T) {
	at := func(off int64) byte { return byte(off*131 ^ off>>7) }
	check := func(off int64, data []byte) bool {
		for i, b := range data {
			if b != at(off+int64(i)) {
				return false
			}
		}
		return true
	}
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		l, err := bigManager(8 << 20).Create(red)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := sim.NewRNG(seed)
				var held []borrow
				for stop := false; !stop; {
					select {
					case <-done:
						stop = true // one last pass over the finished log
					default:
					}
					size := l.Size()
					if size == 0 {
						continue
					}
					off := rng.Int63n(size)
					n := min(rng.Int63n(40<<10), size-off)
					data, _, err := l.Read(off, n)
					if err != nil || !check(off, data) {
						t.Errorf("%+v: Read(%d, %d): err=%v", red, off, n, err)
						return
					}
					if len(held) < 64 {
						held = append(held, borrow{off, data})
					} else {
						held[rng.Intn(len(held))] = borrow{off, data}
					}
					for _, b := range held {
						if !check(b.off, b.data) {
							t.Errorf("%+v: held borrow of [%d,+%d) changed under appends", red, b.off, len(b.data))
							return
						}
					}
				}
			}(uint64(r + 1))
		}
		rng := sim.NewRNG(99)
		var appendErr error
		for l.Size() < 4<<20 && appendErr == nil {
			batch := make([][]byte, 1+rng.Intn(3))
			off := l.Size()
			for i := range batch {
				batch[i] = make([]byte, rng.Intn(48<<10))
				for j := range batch[i] {
					batch[i][j] = at(off)
					off++
				}
			}
			_, _, appendErr = l.AppendBatch(batch, nil)
		}
		close(done)
		wg.Wait()
		if appendErr != nil {
			t.Fatal(appendErr)
		}
	}
}
