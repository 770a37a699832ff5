package main

import "streamlake/internal/rowcodec"

// Rung: rowcodec. Entry point pinned: Decode(data).
//
// The conversion transform decodes every stream message back into a row
// before normalizing and labelling it; the rung decodes the same
// messages.
func (c *climber) rowcodecRung() {
	if c.w.converts == 0 {
		return
	}
	c.rung("convert", "rowcodec", c.w.sends, sampleCap, func(i int) {
		if _, _, err := rowcodec.Decode(c.w.pool[i%len(c.w.pool)].value); err != nil {
			c.errorf("rowcodec rung: %v", err)
		}
	})
}
