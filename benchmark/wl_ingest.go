package main

import (
	"time"

	"streamlake"
)

const benchTopic = "t"

// produce sends pool messages from..from+n through Producer.Send, one
// message per call, recording every acknowledgement in the ledger and
// its virtual latency in acks. before, when set, runs ahead of send i.
// It returns the payload bytes sent.
func produce(e *env, r *roundResult, p *streamlake.Producer, pool []message, led *ledger, from, n int, acks *[]time.Duration, before func(i int)) int64 {
	var user int64
	for i := from; i < from+n; i++ {
		if before != nil {
			before(i)
		}
		idx := i % len(pool)
		m := &pool[idx]
		id := e.tr.begin(spanSend, e.root)
		msg, cost, err := p.Send(benchTopic, m.key, m.value)
		e.tr.end(id)
		r.attempted++
		if err != nil {
			r.fail("send %d: %v", i, err)
			continue
		}
		led.ack(msg.Stream, msg.Offset, idx)
		*acks = append(*acks, cost)
		r.virt += cost
		user += int64(len(m.key) + len(m.value))
	}
	return user
}

// drained is what a catch-up consumer saw.
type drained struct {
	msgs  int
	polls int
	wall  time.Duration   // inside Poll calls only, not the checks
	virt  []time.Duration // virtual latency of each non-empty poll
}

// drain polls the topic from offset 0 with Poll(500), as a consumer of
// the given group, until it is caught up, checking every message against
// the ledger outside the timed calls, and adds what it saw to d.
func drain(e *env, r *roundResult, lake *streamlake.Lake, led *ledger, group string, d *drained) {
	c := lake.Consumer(group)
	if err := c.Subscribe(benchTopic); err != nil {
		r.fail("subscribe: %v", err)
		return
	}
	mark := markReads(lake)
	defer func() { r.counts.noteSliceReads(lake, mark) }()
	r.phase(func() {
		for {
			id := e.tr.begin(spanPoll, e.root)
			t0 := time.Now()
			msgs, cost, err := c.Poll(500)
			dt := time.Since(t0)
			e.tr.end(id)
			r.attempted++
			if err != nil {
				r.fail("poll: %v", err)
				return
			}
			if len(msgs) == 0 {
				return
			}
			d.polls++
			d.msgs += len(msgs)
			d.wall += dt
			d.virt = append(d.virt, cost)
			r.virt += cost
			for i := range msgs {
				led.consume(msgs[i].Stream, msgs[i].Offset, msgs[i].Value)
			}
		}
	})
	led.undelivered()
	r.absorb(led)
}

// ingest: DPI packets through Producer.Send into a 4-stream topic with
// the default 3x replication on a single-node lake with no cache, then a
// catch-up consumer. Only the data plane works: streamsvc, bus,
// streamobj, shard, plog and pool, per byte.
type ingest struct {
	pool []message
}

const ingestMessages = 200_000

// plainTopic is the 4-stream topic with default redundancy that ingest,
// rest and cluster produce to.
var plainTopic = streamlake.TopicConfig{Name: benchTopic, StreamNum: 4}

func (w *ingest) open(e *env) (*streamlake.Lake, error) {
	lake, err := streamlake.Open(streamlake.Config{Seed: e.seed})
	if err != nil {
		return nil, err
	}
	return lake, lake.CreateTopic(plainTopic)
}

func (w *ingest) setup(e *env) error {
	pool, err := dpiPool(e.seed)
	if err != nil {
		return err
	}
	w.pool = pool
	_, err = w.open(e)
	return err
}

func (w *ingest) round(e *env) *roundResult {
	r := newRound()
	lake, err := w.open(e)
	if err != nil {
		r.fail("open: %v", err)
		return r
	}
	r.lake = lake
	n := e.n(ingestMessages)
	led := newLedger(w.pool, 4, n)
	acks := make([]time.Duration, 0, n)
	p := lake.Producer("bench")
	var user int64
	wall := r.phase(func() {
		user = produce(e, r, p, w.pool, led, 0, n, &acks, nil)
	})
	r.wall["produce_kmsgs_per_s"] = float64(n) / wall.Seconds() / 1e3
	r.exact["produce_ack_virt_mean_us"] = durMeanUS(acks)

	var d drained
	drain(e, r, lake, led, "bench", &d)
	r.wall["poll_kmsgs_per_s"] = float64(d.msgs) / d.wall.Seconds() / 1e3
	r.exact["poll_virt_mean_us"] = durMeanUS(d.virt)
	r.exact["stored_bytes_per_user_byte"] = float64(lake.Stats().PhysicalBytes) / float64(user)
	r.ops = n
	r.readCounts(lake)
	r.counts.userBytes = user
	r.work = work{cfg: streamlake.Config{Seed: e.seed}, topic: plainTopic, pool: w.pool, sends: n, polls: d.polls}
	return r
}
