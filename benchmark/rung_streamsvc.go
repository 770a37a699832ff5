package main

import "streamlake"

// Rung: streamsvc. Entry points pinned: (*Producer).Send(topic, key,
// value) and (*Consumer).Poll(max).
//
// Where the workload calls the producer and consumer itself, its spans
// are the rung. Under the gateway (rest) the rung replays the same
// messages through tenant-bound producers on a fresh lake, then drains
// them with a consumer.
const (
	spanSend = "streamsvc.send"
	spanPoll = "streamsvc.poll"
)

func (c *climber) streamsvcRung() {
	if c.w.sends == 0 {
		return
	}
	if len(c.w.tenants) == 0 {
		c.fromSpans("produce", "streamsvc", spanSend)
		c.fromSpans("consume", "streamsvc", spanPoll)
		return
	}
	lake := c.open()
	if err := lake.CreateTopic(c.w.topic); err != nil {
		c.errorf("streamsvc rung: %v", err)
		return
	}
	producers := make([]*streamlake.Producer, len(c.w.tenants))
	for i, t := range c.w.tenants {
		producers[i] = lake.TenantProducer("ladder/"+t, t)
	}
	c.rung("produce", "streamsvc", c.w.sends, c.w.sends, func(i int) {
		m := &c.w.pool[i%len(c.w.pool)]
		if _, _, err := producers[i%len(producers)].Send(c.w.topic.Name, m.key, m.value); err != nil {
			c.errorf("streamsvc rung: send: %v", err)
		}
	})
	cons := lake.Consumer("ladder")
	if err := cons.Subscribe(c.w.topic.Name); err != nil {
		c.errorf("streamsvc rung: %v", err)
		return
	}
	c.rung("consume", "streamsvc", c.w.polls, c.w.polls, func(int) {
		if _, _, err := cons.Poll(500); err != nil {
			c.errorf("streamsvc rung: poll: %v", err)
		}
	})
}
