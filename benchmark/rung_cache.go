package main

import "strconv"

// Rung: cache. Entry points pinned: (*Cache).Get(key) and
// (*Cache).Put(key, data).
//
// Verified extent reads look the cache up and fill it on a miss. The
// rung issues the round's lookups and fills against a fresh lake's cache
// of the same size: a miss looks up a key never seen and fills it with a
// mean-sized entry, a hit looks up the key filled last.
func (c *climber) cacheRung() {
	gets := c.count("cache.calls") - c.count("_cache.fills")
	if gets <= 0 {
		return
	}
	rc := c.open().Cache()
	if rc == nil {
		return
	}
	fills := c.count("_cache.fills")
	data := payload(avg(c.m["cache.fill_bytes"], float64(fills)))
	missEvery := 0
	if fills > 0 {
		missEvery = max(1, gets/fills)
	}
	last := "ladder/seed"
	rc.Put(last, data)
	c.rung("query", "cache", gets, sampleCap, func(i int) {
		if missEvery > 0 && i%missEvery == 0 {
			key := "ladder/" + strconv.Itoa(i)
			rc.Get(key)
			rc.Put(key, data)
			last = key
			return
		}
		rc.Get(last)
	})
}
