package streamsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/resil"
	"streamlake/internal/streamobj"
)

// Consumer subscribes to topics and polls for published messages
// (Figure 7's consumer loop). Consumers belong to a group whose read
// offsets are tracked in the dispatcher's KV store, so a restarted
// consumer resumes where the group left off.
type Consumer struct {
	svc   *Service
	group string

	mu   sync.Mutex
	subs []*subscription // in Subscribe order, which is the order Poll reads
	// recs is the read buffer PollSpanCtx reuses. It is cleared after every
	// read, so an idle consumer pins only its cursors' slices.
	recs []streamobj.Record
}

type subscription struct {
	topic   string
	offsets []int64
	cursors []streamobj.Cursor // per stream, the slice its last read stopped inside
	rr      int                // round-robin cursor over the topic's streams
}

// Consumer returns a consumer handle in the given group.
func (s *Service) Consumer(group string) *Consumer {
	return &Consumer{svc: s, group: group}
}

// find returns the index of topic's subscription, or -1. Callers hold c.mu.
func (c *Consumer) find(topic string) int {
	return slices.IndexFunc(c.subs, func(s *subscription) bool { return s.topic == topic })
}

func offsetKey(group, topic string, idx int) []byte {
	return []byte(fmt.Sprintf("offsets/%s/%s/%d", group, topic, idx))
}

// Subscribe registers interest in a topic, resuming from the group's
// committed offsets. Poll reads topics in the order they were first
// subscribed; subscribing to a topic again keeps its place and the
// slices it holds.
func (c *Consumer) Subscribe(topic string) error {
	ts, ok := c.svc.routes.Load().topics[topic]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTopic, topic)
	}
	n := len(ts.streams)
	sub := &subscription{topic: topic, offsets: make([]int64, n), cursors: make([]streamobj.Cursor, n)}
	for i := range sub.offsets {
		if blob, ok := c.svc.meta.Get(offsetKey(c.group, topic, i)); ok {
			if v, n := binary.Varint(blob); n > 0 {
				sub.offsets[i] = v
			}
		}
	}
	c.mu.Lock()
	if i := c.find(topic); i >= 0 {
		copy(sub.cursors, c.subs[i].cursors) // a held slice is checked against its object
		c.subs[i] = sub
	} else {
		c.subs = append(c.subs, sub)
	}
	c.mu.Unlock()
	return nil
}

// Poll fetches up to max messages across the consumer's subscriptions,
// returning the modelled read latency. An empty result means the
// consumer is caught up.
//
// Lock ordering: c.mu, then one load of the service's routing snapshot;
// never svc.mu.
func (c *Consumer) Poll(max int) ([]Message, time.Duration, error) {
	return c.PollSpanCtx(max, nil, nil)
}

// PollSpanCtx is Poll traced and under a resilience context: slice-load
// and cache costs are charged against rc's virtual-time deadline as the
// scan proceeds. When the deadline expires mid-poll the messages
// fetched so far are returned (offsets advanced past them) alongside
// resil.ErrDeadlineExceeded, so a caller can consume the partial batch
// and poll again. Each stream read is recorded as a streamobj.read
// child of sp (its stream, offset and records), with the slice loads
// under it as plog.read children. Either argument may be nil.
func (c *Consumer) PollSpanCtx(max int, sp *obs.Span, rc *resil.Ctx) ([]Message, time.Duration, error) {
	if max <= 0 {
		max = 256
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.subs) == 0 {
		return nil, 0, ErrNotSubscribed
	}
	var out []Message
	var cost time.Duration
	rt := c.svc.routes.Load()
	m, reg := rt.metrics, rt.reg
	for _, sub := range c.subs {
		ts, ok := rt.topics[sub.topic]
		if !ok {
			continue
		}
		for tries := 0; tries < len(ts.streams) && len(out) < max; tries++ {
			idx := sub.rr % len(ts.streams)
			sub.rr++
			obj := ts.streams[idx]
			var osp *obs.Span
			if sp != nil {
				osp = sp.Child("streamobj.read")
				osp.SetAttr("stream", strconv.Itoa(idx))
				osp.SetAttr("offset", strconv.FormatInt(sub.offsets[idx], 10))
			}
			recs, rcost, err := obj.ReadAppend(c.recs[:0], sub.offsets[idx], streamobj.ReadCtrl{MaxRecords: max - len(out), Ctx: rc, Span: osp, Cursor: &sub.cursors[idx]})
			c.recs = recs[:0]
			if osp != nil {
				osp.SetAttr("records", strconv.Itoa(len(recs)))
				osp.End(rcost)
				sp.Advance(rcost)
			}
			if err == streamobj.ErrPastEnd {
				continue
			}
			cost += rcost
			if out == nil && len(recs) > 0 {
				// Sized once, and not by an empty poll: the other streams
				// are expected to hold about what the first one did.
				out = make([]Message, 0, min(max, len(recs)*len(ts.streams)))
			}
			for _, r := range recs {
				out = append(out, Message{
					Topic: sub.topic, Stream: idx, Key: r.Key, Value: r.Value,
					Offset: r.Offset, Timestamp: r.Timestamp,
				})
			}
			if len(recs) > 0 {
				sub.offsets[idx] = recs[len(recs)-1].Offset + 1
			}
			clear(recs) // the messages keep the borrows; the buffer must not
			if err != nil {
				// A deadline expiry keeps the partial batch: the records
				// already read are delivered and the offsets above have
				// advanced past them, so nothing is re-fetched or lost.
				if errors.Is(err, resil.ErrDeadlineExceeded) {
					m.deadlines.Inc()
				}
				m.consumedMsgs.Add(int64(len(out)))
				return out, cost, err
			}
		}
		if reg != nil {
			// Consumer lag after this poll: messages still ahead of the
			// group's position across the topic's streams.
			var lag int64
			for i, obj := range ts.streams {
				lag += obj.End() - sub.offsets[i]
			}
			reg.Gauge(`streamsvc_consumer_lag{group="` + c.group + `",topic="` + sub.topic + `"}`).Set(float64(lag))
		}
	}
	m.consumedMsgs.Add(int64(len(out)))
	m.pollLat.Observe(cost)
	return out, cost, nil
}

// CommitOffsets persists the group's current read positions to the
// dispatcher KV store and returns the WAL latency.
func (c *Consumer) CommitOffsets() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cost time.Duration
	for _, sub := range c.subs {
		for i, off := range sub.offsets {
			cost += c.svc.meta.Put(offsetKey(c.group, sub.topic, i), binary.AppendVarint(nil, off))
		}
	}
	return cost
}

// Seek repositions the consumer on one stream of a topic.
func (c *Consumer) Seek(topic string, stream int, offset int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(topic)
	if i < 0 {
		return ErrNotSubscribed
	}
	sub := c.subs[i]
	if stream < 0 || stream >= len(sub.offsets) {
		return fmt.Errorf("streamsvc: topic %s has no stream %d", topic, stream)
	}
	sub.offsets[stream] = offset
	return nil
}
