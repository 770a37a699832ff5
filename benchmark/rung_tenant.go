package main

// Rung: tenant. Entry point pinned: (*Registry).Admit(name, now, ops,
// bytes), the quota admission every tenant-bound produce batch passes.
func (c *climber) tenantRung() {
	if len(c.w.tenants) == 0 || c.w.sends == 0 {
		return
	}
	lake := c.open()
	reg := lake.Tenants()
	now := lake.Clock().Now()
	c.rung("produce", "tenant", c.count("tenant.calls"), sampleCap, func(i int) {
		m := &c.w.pool[i%len(c.w.pool)]
		if err := reg.Admit(c.w.tenants[i%len(c.w.tenants)], now, 1, int64(len(m.key)+len(m.value))); err != nil {
			c.errorf("tenant rung: %v", err)
		}
	})
}
