package main

import (
	"fmt"
	"hash/maphash"
)

// ledger checks the stream contract: every acknowledged offset is
// delivered exactly once, in order, with the bytes that were sent.
type ledger struct {
	pool []message
	sent [][]int32 // per stream, pool index by offset
	next []int     // per stream, offset the consumer must see next
	// failed counts every violation; fails describes the first few.
	failed int
	fails  []string
}

func newLedger(pool []message, streams, expect int) *ledger {
	l := &ledger{pool: pool, sent: make([][]int32, streams), next: make([]int, streams)}
	for i := range l.sent {
		l.sent[i] = make([]int32, 0, expect/streams+expect/8)
	}
	return l
}

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	if len(l.fails) < 8 {
		l.fails = append(l.fails, fmt.Sprintf(format, args...))
	}
}

// ack records that pool message idx was acknowledged at (stream, offset).
// Offsets of one stream must come back contiguous from zero.
func (l *ledger) ack(stream int, offset int64, idx int) {
	if stream < 0 || stream >= len(l.sent) {
		l.fail("ack on unknown stream %d", stream)
		return
	}
	if int(offset) != len(l.sent[stream]) {
		l.fail("stream %d acked offset %d, want %d", stream, offset, len(l.sent[stream]))
		return
	}
	l.sent[stream] = append(l.sent[stream], int32(idx))
}

// consume checks one delivered message against what was acknowledged.
func (l *ledger) consume(stream int, offset int64, value []byte) {
	if stream < 0 || stream >= len(l.sent) {
		l.fail("delivery on unknown stream %d", stream)
		return
	}
	if int(offset) != l.next[stream] || int(offset) >= len(l.sent[stream]) {
		l.fail("stream %d delivered offset %d, want %d of %d", stream, offset, l.next[stream], len(l.sent[stream]))
		return
	}
	l.next[stream]++
	if maphash.Bytes(hashSeed, value) != l.pool[l.sent[stream][offset]].hash {
		l.fail("stream %d offset %d: payload differs from what was sent", stream, offset)
	}
}

// rewind starts the delivery check over, for another consumer group.
func (l *ledger) rewind() {
	for s := range l.next {
		l.next[s] = 0
	}
}

// undelivered reports acknowledged messages that were never delivered.
func (l *ledger) undelivered() {
	for s := range l.sent {
		if l.next[s] != len(l.sent[s]) {
			l.fail("stream %d: %d acked, %d delivered", s, len(l.sent[s]), l.next[s])
		}
	}
}
