package main

import (
	"strings"
	"time"

	"streamlake"
	"streamlake/internal/cache"
	"streamlake/internal/cluster"
	"streamlake/internal/obs"
	"streamlake/internal/pool"
)

// layerCounts is everything a round can learn about the layers without
// touching the program: the lake's own read-outs at round end (each
// round has a fresh lake, so totals are the round's deltas) plus what
// the harness itself counted.
type layerCounts struct {
	snap         obs.Snapshot
	cache        cache.Stats
	cluster      cluster.Stats
	logEntries   int
	stats        streamlake.Stats
	hedged       int64
	poolBusy     time.Duration
	denied       int64
	admits       int64
	tableCommits int
	tables       int

	// Counted by the harness.
	userBytes        int64
	ecTopic          bool // the workload's topic is erasure coded
	gatewayCalls     int
	gatewayErrors    int
	convertCalls     int
	convertRows      int64
	convertMalformed int64
	convertVirt      time.Duration
	reclaimed        int64
	rowsMatched      int64 // rows the queries returned or counted
	// queryFiles is how many data files the table held, on average, when
	// the queries were planned; zero means what it holds at round end.
	queryFiles float64
	dataFiles  int // data files in the tables at round end
	// Log reads made for stream slices (polls, conversion); every other
	// log read is a table file.
	sliceReads, sliceReadBytes int64
}

// readMark is the lake's log-read counters at one moment.
type readMark struct{ reads, bytes int64 }

func markReads(lake *streamlake.Lake) readMark {
	reg := lake.Obs()
	return readMark{reg.Histogram("plog_read_seconds").Count(), reg.Counter("plog_read_bytes_total").Value()}
}

// noteSliceReads books the log reads since mark as stream slice reads.
func (c *layerCounts) noteSliceReads(lake *streamlake.Lake, mark readMark) {
	now := markReads(lake)
	c.sliceReads += now.reads - mark.reads
	c.sliceReadBytes += now.bytes - mark.bytes
}

func readCounts(lake *streamlake.Lake) layerCounts {
	c := layerCounts{
		snap:   lake.Obs().Snapshot(),
		stats:  lake.Stats(),
		hedged: lake.HedgeStats().Hedged,
	}
	if rc := lake.Cache(); rc != nil {
		c.cache = rc.Stats()
	}
	if cl := lake.Cluster(); cl != nil {
		c.cluster = cl.Stats()
		c.logEntries = cl.Applied()
	}
	for _, p := range []*pool.Pool{lake.SSDPool(), lake.HDDPool()} {
		for d := 0; d < p.DiskCount(); d++ {
			c.poolBusy += p.DiskStats(pool.DiskID(d)).BusyTime
		}
	}
	if reg := lake.Tenants(); reg != nil {
		for _, st := range reg.Status() {
			c.admits += st.Admitted
			c.denied += st.Throttled + st.CapacityRejects + st.Shed
		}
	}
	for _, name := range lake.Catalog().List() {
		if snap, err := lake.TableSnapshot(name); err == nil {
			c.tables++
			c.tableCommits += len(snap.CommitIDs)
			c.dataFiles += len(snap.Files)
		}
	}
	return c
}

// sum adds up a counter family over its label sets.
func (c *layerCounts) sum(family string) float64 {
	var total int64
	for name, v := range c.snap.Counters {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return float64(total)
}

// hist returns a histogram family's sample count and summed virtual
// time in ms, over its label sets.
func (c *layerCounts) hist(family string) (count, virtMS float64) {
	for name, h := range c.snap.Histograms {
		if name == family || strings.HasPrefix(name, family+"{") {
			count += float64(h.Count)
			virtMS += ms(h.Sum)
		}
	}
	return count, virtMS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics derives every per-layer count, byte total and virtual time.
// self_ms and the wall percentiles come from the ladder and the spans.
func (c *layerCounts) metrics() map[string]float64 {
	m := map[string]float64{}
	produces, produceVirt := c.hist("streamsvc_produce_seconds")
	polls, _ := c.hist("streamsvc_poll_seconds")
	busSends := c.sum("bus_sends_total")
	_, busVirt := c.hist("bus_send_seconds")
	objAcks, objVirt := c.hist("streamobj_ack_seconds")
	appends, appendVirt := c.hist("plog_append_seconds")
	reads, readVirt := c.hist("plog_read_seconds")
	flushes, flushBytes := c.sum("streamobj_slice_flushes_total"), c.sum("streamobj_flush_bytes_total")
	appendBytes := c.sum("plog_append_bytes_total")
	// Every plog append that is not a stream slice flush is a table
	// object file: data, commit, snapshot or properties.
	tableWrites, tableBytes := appends-flushes, appendBytes-flushBytes

	m["gateway.calls"] = float64(c.gatewayCalls)
	m["gateway.errors"] = float64(c.gatewayErrors)
	m["tenant.calls"] = float64(c.admits + c.denied)
	m["tenant.denied"] = float64(c.denied)
	m["streamsvc.calls"] = produces + polls
	m["streamsvc.retries"] = c.sum("streamsvc_retries_total")
	m["bus.calls"] = busSends
	m["bus.virt_ms"] = busVirt
	m["bus.sends_per_batch"] = ratio(busSends, c.sum("bus_batches_total"))
	m["cluster.calls"] = float64(c.cluster.Commits + c.cluster.CommitFails)
	if m["cluster.calls"] > 0 {
		// The commit gate's virtual time is what is left of the produce
		// acks once the bus transfers and durable appends are taken out.
		m["cluster.virt_ms"] = max(0, produceVirt-busVirt-objVirt)
	}
	m["cluster.log_entries"] = float64(c.logEntries)
	m["cluster.elections"] = float64(c.cluster.Elections)
	m["streamobj.calls"] = objAcks + polls
	m["streamobj.slice_flushes"] = flushes
	m["streamobj.flush_bytes"] = flushBytes
	m["streamobj.reclaimed_bytes"] = float64(c.reclaimed)
	// Files the scans read: every plan considers the table's data files
	// and prunes some (exact while the file set stands still, as on
	// warehouse and rest; an estimate on pipeline, where it grows).
	plans, pruned := c.sum("lakehouse_plans_total"), c.sum("lakehouse_pruned_files_total")
	queryFiles := c.queryFiles
	if queryFiles == 0 {
		queryFiles = float64(c.dataFiles)
	}
	dataReads := max(0, plans*queryFiles-pruned)
	tableReads := reads - float64(c.sliceReads)
	m["shard.calls"] = flushes + float64(c.sliceReads)
	m["plog.calls"] = appends + reads
	m["plog.append_virt_ms"] = appendVirt
	m["plog.read_virt_ms"] = readVirt
	m["plog.append_bytes"] = appendBytes
	m["plog.read_bytes"] = c.sum("plog_read_bytes_total")
	m["plog.degraded_appends"] = c.sum("plog_degraded_appends_total")
	m["plog.hedged_reads"] = float64(c.hedged)
	m["pool.write_ops"] = c.sum("pool_write_ops_total")
	m["pool.write_bytes"] = c.sum("pool_write_bytes_total")
	m["pool.read_ops"] = c.sum("pool_read_ops_total")
	m["pool.read_bytes"] = c.sum("pool_read_bytes_total")
	m["pool.calls"] = m["pool.write_ops"] + m["pool.read_ops"]
	m["pool.virt_ms"] = ms(c.poolBusy)
	m["pool.write_bytes_per_user_byte"] = ratio(m["pool.write_bytes"], float64(c.userBytes))
	m["ec.calls"], m["ec.encoded_bytes"] = tableWrites, tableBytes
	if c.ecTopic {
		m["ec.calls"], m["ec.encoded_bytes"] = appends, appendBytes
	}
	gets := float64(c.cache.DRAMHits + c.cache.SCMHits + c.cache.Misses)
	m["cache.calls"] = gets + float64(c.cache.Fills)
	m["cache.hit_ratio"] = ratio(float64(c.cache.DRAMHits+c.cache.SCMHits), gets)
	m["cache.evictions"] = float64(c.cache.Evictions)
	m["cache.fill_bytes"] = float64(c.cache.FillBytes)
	m["query.calls"] = c.sum("query_queries_total")
	m["query.pushdown_hits"] = c.sum("query_pushdown_hits_total")
	m["lakehouse.calls"] = plans + c.sum("lakehouse_scans_total")
	m["lakehouse.files_planned"] = dataReads
	m["lakehouse.files_pruned_ratio"] = ratio(pruned, pruned+dataReads)
	m["lakehouse.rows_scanned_per_row_returned"] = ratio(c.sum("lakehouse_rows_scanned_total"), float64(c.rowsMatched))
	m["lakehouse.scan_read_bytes"] = c.sum("lakehouse_scan_read_bytes_total")
	m["tableobj.calls"] = tableWrites + tableReads
	m["tableobj.commits"] = float64(c.tableCommits)
	m["tableobj.files"] = float64(c.stats.TableFiles)
	// A commit writes a commit file and a snapshot file, a new table its
	// first snapshot and properties; the rest of the writes are data files.
	dataFiles := max(0, tableWrites-float64(2*c.tableCommits+2*c.tables))
	m["colfile.calls"] = dataFiles + dataReads
	m["colfile.bytes_encoded"] = tableBytes
	m["colfile.bytes_decoded"] = m["lakehouse.scan_read_bytes"]
	m["convert.calls"] = float64(c.convertCalls)
	m["convert.rows"] = float64(c.convertRows)
	m["convert.malformed"] = float64(c.convertMalformed)
	m["convert.virt_ms"] = ms(c.convertVirt)
	m["rowcodec.calls"] = float64(c.convertRows+c.convertMalformed) + float64(c.tableCommits)

	// What the ladder's rungs replay, beyond the published metrics.
	m["_bus.bytes"] = c.sum("bus_bytes_total")
	m["_streamsvc.produced_bytes"] = c.sum("streamsvc_produced_bytes_total")
	m["_stream.slice_reads"] = float64(c.sliceReads)
	m["_stream.slice_read_bytes"] = float64(c.sliceReadBytes)
	m["_table.writes"], m["_table.bytes"] = tableWrites, tableBytes
	m["_table.reads"] = tableReads
	m["_table.read_bytes"] = m["plog.read_bytes"] - float64(c.sliceReadBytes)
	m["_cache.fills"] = float64(c.cache.Fills)
	return m
}
