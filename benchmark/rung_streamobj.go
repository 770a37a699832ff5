package main

import (
	"streamlake/internal/streamobj"
)

// Rung: streamobj. Entry points pinned: (*Object).Append(records,
// producerID, seq), (*Object).Read(offset, ctrl) and, untimed,
// (*Object).Flush() and (*Object).ReclaimThrough(offset).
//
// The round's messages are appended, one record per call as the
// producer does, to stream objects created in a fresh lake's store with
// the topic's redundancy; the filled objects are then read back the way
// the consumer reads them (up to 500 records a poll). Where the round
// converts, the rung goes burst by burst as the round does: append a
// burst, read it back a slice at a time as the converter does, then
// release the stream copy as a conversion with delete_msg does, so the
// next burst is appended to a store as empty as the round's.
func (c *climber) streamobjRung() {
	if c.w.sends == 0 {
		return
	}
	lake := c.open()
	store := lake.Service().Store()
	objs := make([]*streamobj.Object, max(1, c.w.topic.StreamNum))
	for i := range objs {
		o, err := store.Create(streamobj.CreateOptions{Topic: c.w.topic.Name, Redundancy: c.w.topic.Redundancy})
		if err != nil {
			c.errorf("streamobj rung: %v", err)
			return
		}
		objs[i] = o
	}
	seqs := make([]int64, len(objs))
	offsets := make([]int64, len(objs))
	rec := make([]streamobj.Record, 1)
	bursts := max(1, c.w.converts)
	per := c.w.sends / bursts
	for b := 0; b < bursts; b++ {
		c.rung("produce", "streamobj", per, per, func(i int) {
			i += b * per
			m := &c.w.pool[i%len(c.w.pool)]
			s := i % len(objs)
			seqs[s]++
			rec[0] = streamobj.Record{Key: m.key, Value: m.value}
			if _, _, err := objs[s].Append(rec, "ladder", seqs[s]); err != nil {
				c.errorf("streamobj rung: append: %v", err)
			}
		})
		if c.w.converts == 0 {
			break
		}
		// One read per slice the burst left in each object.
		var from []int
		for s, o := range objs {
			if _, err := o.Flush(); err != nil {
				c.errorf("streamobj rung: flush: %v", err)
			}
			for n := offsets[s]; n < o.End(); n += streamobj.SliceRecords {
				from = append(from, s)
			}
		}
		c.rung("convert", "streamobj", len(from), len(from), func(i int) {
			s := from[i]
			recs, _, err := objs[s].Read(offsets[s], streamobj.ReadCtrl{MaxRecords: streamobj.SliceRecords})
			if err != nil {
				c.errorf("streamobj rung: read: %v", err)
			}
			offsets[s] += int64(len(recs))
		})
		for _, o := range objs {
			if _, err := o.ReclaimThrough(o.End()); err != nil {
				c.errorf("streamobj rung: reclaim: %v", err)
			}
		}
	}
	if c.w.converts > 0 || c.w.polls == 0 {
		return
	}
	// As many polls as the round made: its consumers each went through
	// every object once.
	c.rung("consume", "streamobj", c.w.polls, c.w.polls, func(i int) {
		s := i % len(objs)
		recs, _, err := objs[s].Read(offsets[s], streamobj.ReadCtrl{MaxRecords: 500})
		if err != nil && err != streamobj.ErrPastEnd {
			c.errorf("streamobj rung: read: %v", err)
		}
		if len(recs) > 0 {
			offsets[s] = recs[len(recs)-1].Offset + 1
		} else {
			offsets[s] = 0 // the next consumer starts over
		}
	})
}
