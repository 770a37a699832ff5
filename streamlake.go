// Package streamlake is the public API of the StreamLake reproduction:
// a data lake storage system combining message streaming and lakehouse
// batch processing over one copy of the data, with a
// compute-and-storage disaggregated architecture, erasure-coded tiered
// storage, automatic stream-to-table conversion, metadata-accelerated
// lakehouse operations, and the LakeBrain storage-side optimizer —
// the system described in "Separation Is for Better Reunion: Data Lake
// Storage at Huawei" (ICDE 2024).
//
// A Lake wires the full stack together:
//
//	lake, _ := streamlake.Open(streamlake.Config{})
//	lake.CreateTopic(streamlake.TopicConfig{Name: "events", StreamNum: 4})
//	p := lake.Producer("my-app")
//	p.Send("events", []byte("k"), []byte("v"))
//
// See the examples directory for end-to-end scenarios.
package streamlake

import (
	"fmt"
	"time"

	"streamlake/internal/cache"
	"streamlake/internal/cluster"
	"streamlake/internal/colfile"
	"streamlake/internal/convert"
	"streamlake/internal/faults"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/lakehouse"
	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/query"
	"streamlake/internal/repair"
	"streamlake/internal/scrub"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tableobj"
	"streamlake/internal/tenant"
	"streamlake/internal/tiering"
)

// Re-exported configuration and data types. The reproduction keeps
// implementations under internal/; these aliases form the supported
// surface.
type (
	// TopicConfig configures a message topic (Figure 8 of the paper).
	TopicConfig = streamsvc.TopicConfig
	// ConvertConfig is the convert_2_table block of a topic config.
	ConvertConfig = streamsvc.ConvertConfig
	// ArchiveConfig is the archive block of a topic config.
	ArchiveConfig = streamsvc.ArchiveConfig
	// Message is one consumed record.
	Message = streamsvc.Message
	// Producer publishes messages.
	Producer = streamsvc.Producer
	// Consumer subscribes to topics.
	Consumer = streamsvc.Consumer
	// Schema describes a table's columns.
	Schema = colfile.Schema
	// Row is one table record.
	Row = colfile.Row
	// Value is one typed cell.
	Value = colfile.Value
	// Result is a SQL query result.
	Result = query.Result
	// Redundancy selects replication or erasure coding.
	Redundancy = plog.Redundancy
	// TableMeta is a table's catalog profile.
	TableMeta = tableobj.TableMeta
	// Snapshot is a table snapshot (for time travel).
	Snapshot = tableobj.Snapshot
	// FaultInjector kills/revives disks and injects transient I/O faults.
	FaultInjector = faults.Injector
	// RepairReport summarizes one pass of the repair service.
	RepairReport = repair.Report
	// ScrubReport summarizes one pass of the background scrubber.
	ScrubReport = scrub.Report
	// ScrubStats accumulates scrub activity across passes.
	ScrubStats = scrub.Stats
	// IntegrityStats counts checksum verifications, mismatches, and
	// fallback reads across the lake's PLogs.
	IntegrityStats = plog.IntegrityStats
	// CorruptionEvent identifies one injected silent corruption.
	CorruptionEvent = plog.CorruptionEvent
	// PoolStats is a storage pool accounting snapshot.
	PoolStats = pool.Stats
	// TenantConfig is one tenant's QoS contract: weight, shed priority,
	// and capacity/IOPS/bandwidth quotas.
	TenantConfig = tenant.Config
	// TenantStatus is one tenant's contract plus its admission counters.
	TenantStatus = tenant.Status
)

// Value constructors, re-exported.
var (
	IntValue    = colfile.IntValue
	FloatValue  = colfile.FloatValue
	StringValue = colfile.StringValue
	BoolValue   = colfile.BoolValue
	// MustSchema parses "name:type" field specs, panicking on error.
	MustSchema = colfile.MustSchema
	// NewSchema parses "name:type" field specs.
	NewSchema = colfile.NewSchema
	// ReplicateN builds an n-copy replication policy.
	ReplicateN = plog.ReplicateN
	// EC builds a k+m erasure coding policy.
	EC = plog.EC
	// EncodeRow serializes a row as a stream message payload for
	// stream-to-table conversion.
	EncodeRow = convert.EncodeRow
	// DecodeRow parses a message payload produced by EncodeRow. The
	// row's strings share the payload's bytes: leave the payload
	// unchanged while they are in use.
	DecodeRow = convert.DecodeRow
)

// Config sizes a Lake.
type Config struct {
	// SSDDisks sizes the SSD pool (default 6, or two per node when
	// Nodes > 1, so every copy has its own failure domain and a lost
	// node leaves room to re-replicate). The HDD pool has six disks.
	SSDDisks int
	// Workers is the stream worker fleet size (default 3).
	Workers int
	// PLogCapacity overrides the 128 MB PLog address space (tests use
	// smaller logs).
	PLogCapacity int64
	// GroupCommitSlices sizes group commit: up to this many full slice
	// flushes coalesce into one PLog commit (one device write per
	// placement copy instead of one per slice). 0 or 1 (the default)
	// commits every slice on its own. Flush timing and device write-op
	// counts depend on the size, so replay digests are comparable only
	// between runs with the same setting.
	GroupCommitSlices int
	// Nodes sizes the cluster plane every lake runs on: disks partition
	// into per-node failure domains, placement spreads copies across
	// nodes via consistent hashing, a heartbeat failure detector and
	// Raft-lite replicated metadata log run over the network fault plane,
	// and every produce ack waits for a majority metadata commit. 0 and 1
	// (the default) are the same one-node lake, whose commit is a local
	// apply that costs nothing; replay digests are comparable only
	// between runs with the same node count.
	Nodes int
	// CacheMB sizes the two-tier (DRAM + SCM) read cache in megabytes;
	// 0 (the default) disables it, leaving every read on the device
	// path. The DRAM tier gets 1/8 of the budget, the SCM tier the
	// rest. Extent reads fill it only after checksum verification, and
	// repair/scrub/migration/DML events invalidate affected entries.
	CacheMB int
	// Tenants declares the lake's tenants and their QoS contracts at
	// Open: per-tenant quota admission, weighted-fair scheduling on the
	// worker buses and at pool admission, and priority-ordered load
	// shedding under overload. Every lake holds a tenant registry; while
	// it declares no tenant (the default) every request runs as the
	// unmetered system identity, and the first tenant declared — here
	// or later through SetTenant — turns metering on.
	Tenants []TenantConfig
	// Seed drives all randomized components deterministically.
	Seed uint64
}

// Lake is a fully wired StreamLake instance: storage pools, PLog
// manager, stream service, lakehouse engine, conversion service,
// tiering, and SQL.
type Lake struct {
	clock   *sim.Clock
	ssdPool *pool.Pool
	hddPool *pool.Pool
	logs    *plog.Manager
	store   *streamobj.Store
	svc     *streamsvc.Service
	fs      *tableobj.FileStore
	cat     *tableobj.Catalog
	lh      *lakehouse.Engine
	conv    *convert.Converter
	arch    *convert.Archiver
	tiers   *tiering.Service
	sql     *query.Engine
	inj     *faults.Injector
	rep     *repair.Service
	scrub   *scrub.Service
	reg     *obs.Registry
	tracer  *obs.Tracer
	rcache  *cache.Cache // nil when Config.CacheMB is 0
	clus    *cluster.Cluster
	tenants *tenant.Registry
}

// Open builds a Lake.
func Open(cfg Config) (*Lake, error) {
	if cfg.SSDDisks <= 0 {
		cfg.SSDDisks = 6
		if cfg.Nodes > 1 {
			cfg.SSDDisks = 2 * cfg.Nodes
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.PLogCapacity <= 0 {
		cfg.PLogCapacity = plog.DefaultCapacity
	}
	clock := sim.NewClock()
	ssd := pool.New("ssd", clock, sim.NVMeSSD, cfg.SSDDisks, 0)
	hdd := pool.New("hdd", clock, sim.SASHDD, 6, 0)
	logs := plog.NewManager(ssd, cfg.PLogCapacity)
	store := streamobj.NewStore(clock, logs)
	svc := streamsvc.New(clock, store, cfg.Workers)
	fs := tableobj.NewFileStore(logs)
	fs.SetRedundancy(tableRedundancy(cfg.Nodes))
	cat := tableobj.NewCatalog(clock)
	store.EnableGroupCommit(cfg.GroupCommitSlices)
	lh := lakehouse.New(clock, fs, cat, lakehouse.Options{Acceleration: true})
	tiers := tiering.NewService(clock, logs, hdd)
	conv := convert.New(clock, svc, lh)
	inj := faults.New(cfg.Seed)
	inj.Attach(ssd)
	inj.Attach(hdd)
	l := &Lake{
		clock:   clock,
		ssdPool: ssd,
		hddPool: hdd,
		logs:    logs,
		store:   store,
		svc:     svc,
		fs:      fs,
		cat:     cat,
		lh:      lh,
		conv:    conv,
		arch:    convert.NewArchiver(conv, tiers),
		tiers:   tiers,
		sql:     query.New(lh),
		inj:     inj,
	}
	inj.AttachCorruptor("ssd", logs)
	if cfg.CacheMB > 0 {
		total := int64(cfg.CacheMB) << 20
		l.rcache = cache.New(cache.Config{DRAMBytes: total / 8, SCMBytes: total - total/8})
		logs.SetCache(l.rcache)
		lh.SetCache(l.rcache)
	}
	// The network fault plane sits under every worker bus; the produce
	// path rides it with retries, modelled acks, and per-endpoint circuit
	// breakers, its backoff jitter seeded from the lake's seed.
	svc.SetNet(inj.Net())
	svc.SetResilience(int64(cfg.Seed))
	// Multi-tenancy plane: quota admission at the producer, weighted-fair
	// scheduling on the worker buses and at pool admission, capacity
	// charging at durable append — one registry for the whole lake, which
	// meters nothing until a tenant is declared.
	tenants, err := tenant.NewRegistry(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	l.tenants = tenants
	svc.SetTenants(tenants)
	store.SetTenants(tenants)
	logs.SetHedge(plog.HedgeConfig{Enabled: true})
	l.rep = repair.New(clock, logs)
	l.scrub = scrub.New(clock, logs, l.rep)
	// cluster.New reads 0 nodes as its default of 3; a lake's 0 is one.
	nodes := max(cfg.Nodes, 1)
	cl := cluster.New(cluster.Config{Nodes: nodes, Seed: cfg.Seed}, clock, inj.Net())
	cl.AttachPool(ssd, logs)
	cl.AttachPool(hdd, logs) // shares the SSD manager's logs (tiering migrates them)
	cl.AttachRepair(l.rep)
	net := inj.Net()
	// Stream workers map onto the birth nodes only (worker w on node
	// w%nodes); a node joined at runtime (id >= birth N) contributes
	// storage and consensus but hosts no workers, so its id must not
	// alias onto an old node's workers and kill the wrong links.
	workersOf := func(node int, f func(w int)) {
		for w := node; node < nodes && w < cfg.Workers; w += nodes {
			f(w)
		}
	}
	// A killed node's process is gone before any detection: its
	// workers' client links partition immediately, and heal on revival.
	cl.OnKill(func(node int, up bool) {
		workersOf(node, func(w int) {
			ep := fmt.Sprintf("worker/%d", w)
			if up {
				net.Heal("client", ep)
				net.Heal(ep, "client")
			} else {
				net.Partition("client", ep)
				net.Partition(ep, "client")
			}
		})
	})
	// Committed membership changes reassign the node's stream workers.
	cl.OnMembership(func(node int, serving bool) {
		workersOf(node, func(w int) { svc.SetWorkerDown(w, !serving) })
	})
	svc.SetCommitGate(cl)
	l.clus = cl
	l.reg = obs.NewRegistry(clock)
	l.tracer = obs.NewTracer(clock)
	ssd.SetObs(l.reg)
	hdd.SetObs(l.reg)
	logs.SetObs(l.reg)
	store.SetObs(l.reg)
	svc.SetObs(l.reg)
	lh.SetObs(l.reg)
	l.sql.SetObs(l.reg)
	l.rep.SetObs(l.reg)
	l.scrub.SetObs(l.reg)
	if l.rcache != nil {
		l.rcache.SetObs(l.reg)
	}
	cl.SetObs(l.reg)
	tenants.SetObs(l.reg)
	if err := cl.Bootstrap(); err != nil {
		return nil, err
	}
	return l, nil
}

// tableRedundancy is the widest EC(k,2), k ≤ 4, whose shards the (n−1)/2
// node failures a quorum of n survives cannot take three of: EC(3,2) on
// five nodes, where six shards put two on one node; else EC(4,2).
func tableRedundancy(nodes int) plog.Redundancy {
	for k := 4; k > 1; k-- {
		if perNode := (k + 1 + nodes) / max(nodes, 1); perNode*((nodes-1)/2) <= 2 {
			return plog.EC(k, 2)
		}
	}
	return plog.EC(4, 2)
}

// Cache exposes the two-tier read cache; nil when Config.CacheMB is 0.
func (l *Lake) Cache() *cache.Cache { return l.rcache }

// FlushCache drops every resident cache entry (statistics survive) and
// returns how many entries were dropped; 0 when no cache is configured.
func (l *Lake) FlushCache() int {
	if l.rcache == nil {
		return 0
	}
	return l.rcache.Flush()
}

// Obs exposes the lake's metrics registry, which aggregates every
// layer's counters, gauges, and virtual-time histograms.
func (l *Lake) Obs() *obs.Registry { return l.reg }

// Tracer exposes the lake's request tracer.
func (l *Lake) Tracer() *obs.Tracer { return l.tracer }

// Clock exposes the lake's virtual clock (experiments advance it).
func (l *Lake) Clock() *sim.Clock { return l.clock }

// CreateTopic declares a message topic. The definition replicates
// through the metadata log first — a minority partition cannot create
// topics.
func (l *Lake) CreateTopic(cfg TopicConfig) error {
	if _, err := l.clus.ProposeMeta("topic/" + cfg.Name); err != nil {
		return fmt.Errorf("streamlake: replicate topic %q: %w", cfg.Name, err)
	}
	return l.svc.CreateTopic(cfg)
}

// DeleteTopic removes a topic and its stream objects. The deletion
// replicates through the metadata log first — the mirror of
// CreateTopic, so a minority partition can neither create nor delete,
// and a later CreateTopic of the same name replicates again.
func (l *Lake) DeleteTopic(name string) error {
	if _, err := l.clus.ProposeMetaDelete("topic/" + name); err != nil {
		return fmt.Errorf("streamlake: replicate topic delete %q: %w", name, err)
	}
	return l.svc.DeleteTopic(name)
}

// Producer returns a producer handle (empty id = fresh identity).
func (l *Lake) Producer(id string) *Producer { return l.svc.Producer(id) }

// TenantProducer returns a producer bound to a tenant identity: batches
// are admitted against the tenant's quotas and carry the tenant through
// scheduling, storage accounting, and spans.
func (l *Lake) TenantProducer(id, ten string) *Producer { return l.svc.TenantProducer(id, ten) }

// Tenants exposes the lake's tenant registry.
func (l *Lake) Tenants() *tenant.Registry { return l.tenants }

// SetTenant adds or updates a tenant's QoS contract at runtime. The
// first tenant declared on a lake turns metering on: from then on a
// tenant-bound request must name a declared tenant.
func (l *Lake) SetTenant(cfg TenantConfig) error { return l.tenants.Set(cfg) }

// Consumer returns a consumer handle in the given group.
func (l *Lake) Consumer(group string) *Consumer { return l.svc.Consumer(group) }

// ScaleWorkers rescales the stream worker fleet; the returned count is
// how many stream assignments moved (metadata only, no data migration).
func (l *Lake) ScaleWorkers(n int) (moved int, cost time.Duration) {
	return l.svc.SetWorkerCount(n)
}

// RunConversion runs one pass of the stream-to-table conversion service.
func (l *Lake) RunConversion() ([]convert.Result, time.Duration, error) {
	return l.RunConversionSpan(nil)
}

// RunConversionSpan is RunConversion recording each converted topic as a
// convert child of sp (convert.Converter.ForceTopic).
func (l *Lake) RunConversionSpan(sp *obs.Span) ([]convert.Result, time.Duration, error) {
	return l.conv.RunOnce(sp)
}

// ConvertNow force-converts one topic regardless of its triggers.
func (l *Lake) ConvertNow(topic string) (convert.Result, time.Duration, error) {
	return l.ConvertNowSpan(topic, nil)
}

// ConvertNowSpan is ConvertNow tracing as RunConversionSpan does.
func (l *Lake) ConvertNowSpan(topic string, sp *obs.Span) (convert.Result, time.Duration, error) {
	return l.conv.ForceTopic(topic, sp)
}

// Playback re-publishes a table snapshot's rows as stream messages.
func (l *Lake) Playback(table string, snap Snapshot, topic string) (int64, time.Duration, error) {
	tbl, err := l.lh.Table(table)
	if err != nil {
		return 0, 0, err
	}
	return convert.Playback(tbl, snap, l.Producer(""), topic)
}

// CreateTable registers a lakehouse table, replicating the definition
// through the metadata log.
func (l *Lake) CreateTable(meta TableMeta) error {
	if _, err := l.clus.ProposeMeta("table/" + meta.Name); err != nil {
		return fmt.Errorf("streamlake: replicate table %q: %w", meta.Name, err)
	}
	_, err := l.lh.CreateTable(meta)
	return err
}

// Insert writes rows into a table through the metadata write cache.
func (l *Lake) Insert(table string, rows []Row) error {
	_, err := l.lh.Insert(table, rows)
	return err
}

// FlushTable folds the table's cached metadata into persistent
// snapshots (the MetaFresher).
func (l *Lake) FlushTable(table string) error {
	_, err := l.lh.Flush(table)
	return err
}

// Delete removes rows matching col in [lo, hi] (nil = unbounded).
func (l *Lake) Delete(table, column string, lo, hi *Value) (int64, error) {
	n, _, err := l.lh.Delete(table, []lakehouse.RangeFilter{{Column: column, Lo: lo, Hi: hi}})
	return n, err
}

// Update rewrites rows matching col in [lo, hi] through set.
func (l *Lake) Update(table, column string, lo, hi *Value, set func(Row) Row) (int64, error) {
	n, _, err := l.lh.Update(table, []lakehouse.RangeFilter{{Column: column, Lo: lo, Hi: hi}}, set)
	return n, err
}

// DropTableSoft unregisters a table, keeping its data restorable. Like
// CreateTable, the catalog change replicates through the metadata log
// before taking local effect.
func (l *Lake) DropTableSoft(table string) error {
	if _, err := l.clus.ProposeMetaDelete("table/" + table); err != nil {
		return fmt.Errorf("streamlake: replicate table drop %q: %w", table, err)
	}
	_, err := l.lh.DropSoft(table)
	return err
}

// RestoreTable re-registers a soft-dropped table, re-replicating the
// registration.
func (l *Lake) RestoreTable(table string) error {
	if _, err := l.clus.ProposeMeta("table/" + table); err != nil {
		return fmt.Errorf("streamlake: replicate table restore %q: %w", table, err)
	}
	_, err := l.lh.Restore(table)
	return err
}

// DropTableHard removes a table's data, metadata and catalog entry; the
// deletion replicates through the metadata log.
func (l *Lake) DropTableHard(table string) error {
	if _, err := l.clus.ProposeMetaDelete("table/" + table); err != nil {
		return fmt.Errorf("streamlake: replicate table drop %q: %w", table, err)
	}
	_, err := l.lh.DropHard(table)
	return err
}

// Query executes a SQL SELECT (COUNT/SUM aggregates, WHERE ranges,
// GROUP BY) with predicate and aggregate pushdown.
func (l *Lake) Query(sql string) (*Result, error) { return l.sql.Query(sql) }

// QueryCost executes a query and also returns its modelled virtual
// latency (planning plus execution).
func (l *Lake) QueryCost(sql string) (*Result, time.Duration, error) {
	return l.QuerySpan(sql, nil)
}

// QuerySpan is QueryCost recording the query's plan and scan under sp
// (query.Engine.ExecuteSpan); the caller ends sp with the returned
// cost. A nil sp traces nothing.
func (l *Lake) QuerySpan(sql string, sp *obs.Span) (*Result, time.Duration, error) {
	stmt, err := query.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	res, err := l.sql.ExecuteSpan(stmt, sp)
	if err != nil {
		return nil, 0, err
	}
	return res, res.Stats.PlanCost + res.Stats.ExecCost, nil
}

// TableSnapshot returns the table's current snapshot.
func (l *Lake) TableSnapshot(table string) (Snapshot, error) {
	tbl, err := l.lh.Table(table)
	if err != nil {
		return Snapshot{}, err
	}
	s, _, err := tbl.Current()
	return s, err
}

// TableAsOf returns the table's snapshot as of a virtual time (time
// travel).
func (l *Lake) TableAsOf(table string, ts time.Duration) (Snapshot, error) {
	tbl, err := l.lh.Table(table)
	if err != nil {
		return Snapshot{}, err
	}
	s, _, err := tbl.AsOf(ts)
	return s, err
}

// CompactTable binpack-merges a partition's small files.
func (l *Lake) CompactTable(table, partition string, targetFileSize int64) (int, error) {
	tbl, err := l.lh.Table(table)
	if err != nil {
		return 0, err
	}
	n, _, err := compact.CompactPartition(tbl, partition, targetFileSize)
	return n, err
}

// Stats summarizes the lake's storage state.
type Stats struct {
	StreamObjects   int
	Topics          int
	TableFiles      int
	LogicalBytes    int64
	PhysicalBytes   int64
	PoolUtilization float64
	DegradedLogs    int   // PLogs holding stale replicas/shards
	StaleBytes      int64 // redundancy bytes awaiting repair
	Mismatches      int64 // checksum mismatches detected (reads + scrub)
	FallbackReads   int64 // reads served from a fallback copy after a mismatch
}

// Stats returns a storage snapshot.
func (l *Lake) Stats() Stats {
	ps := l.ssdPool.Stats()
	integ := l.logs.IntegrityStats()
	return Stats{
		StreamObjects:   l.store.Count(),
		Topics:          len(l.svc.Topics()),
		TableFiles:      l.fs.Count(),
		LogicalBytes:    l.logs.LogicalBytes(),
		PhysicalBytes:   l.logs.PhysicalBytes(),
		PoolUtilization: ps.Utilization(),
		DegradedLogs:    l.logs.DegradedCount(),
		StaleBytes:      l.logs.StaleBytes(),
		Mismatches:      integ.Mismatches,
		FallbackReads:   integ.FallbackReads,
	}
}

// Engine exposes the lakehouse engine for advanced use (benchmarks).
func (l *Lake) Engine() *lakehouse.Engine { return l.lh }

// Service exposes the streaming service for advanced use.
func (l *Lake) Service() *streamsvc.Service { return l.svc }

// Tiering exposes the tiering service.
func (l *Lake) Tiering() *tiering.Service { return l.tiers }

// Archiver exposes the stream archiving service.
func (l *Lake) Archiver() *convert.Archiver { return l.arch }

// Catalog exposes the table catalog.
func (l *Lake) Catalog() *tableobj.Catalog { return l.cat }

// RunTiering runs one pass of the tiering service (the data service
// layer's, Section III): sealed logs idle on the SSD pool for the
// policy's window drain to the HDD pool. Each move is physical: the
// log's placement group moves pools, carrying the CRC sidecar and stale
// accounting verbatim so scrub and repair stay coherent across the
// move, and its extents compress on the way onto the HDD pool (see
// plog.Migrate). The returned cost is the sum of those moves; deciding
// them is free. A log with stale copies, or whose move fails, is tried
// again by the next pass. Each move is recorded as a tiering.migrate
// child of sp; a nil sp traces nothing.
func (l *Lake) RunTiering(sp *obs.Span) ([]tiering.Migration, time.Duration) {
	return l.tiers.RunOnce(sp)
}

// Cluster exposes the lake's cluster plane: membership, placement and
// the replicated metadata log, with Config.Nodes members (one when 0).
func (l *Lake) Cluster() *cluster.Cluster { return l.clus }

// Faults exposes the fault injector attached to the lake's storage
// pools: disk kill/revive, transient error rates, latency degradation.
// All randomness derives from Config.Seed, so fault scenarios replay
// deterministically.
func (l *Lake) Faults() *faults.Injector { return l.inj }

// Net exposes the network fault plane the worker buses consult:
// per-link drop rates, delay/jitter, directed partitions.
func (l *Lake) Net() *faults.NetPlane { return l.inj.Net() }

// HedgeStats reports hedged-read activity across the lake's PLogs.
func (l *Lake) HedgeStats() plog.HedgeStats { return l.logs.HedgeStats() }

// GroupCommitStats reports the PLog commits that coalesced more than one
// slice flush; zeros when Config.GroupCommitSlices left every slice
// committing on its own.
func (l *Lake) GroupCommitStats() plog.GroupCommitStats { return l.logs.GroupCommitStats() }

// Repairer exposes the background repair service that re-replicates or
// re-encodes stale slices left behind by degraded writes.
func (l *Lake) Repairer() *repair.Service { return l.rep }

// RunRepair runs one repair pass over every degraded PLog and returns
// what it accomplished.
func (l *Lake) RunRepair() RepairReport { return l.rep.RunOnce() }

// RepairUntilRedundant runs repair passes until full redundancy is
// restored or maxRounds is exhausted; ok reports whether the lake ended
// fully redundant.
func (l *Lake) RepairUntilRedundant(maxRounds int) (RepairReport, bool) {
	return l.rep.RunUntilRedundant(maxRounds)
}

// Scrubber exposes the background scrubber that verifies every copy's
// checksums and feeds what it finds into the repair service.
func (l *Lake) Scrubber() *scrub.Service { return l.scrub }

// RunScrub runs one scrub pass — a sweep of every live log — and
// repairs what it found.
func (l *Lake) RunScrub() ScrubReport { return l.scrub.RunOnce() }

// Integrity reports checksum activity across the lake's PLogs:
// verifications, mismatches, fallback reads, injected corruptions.
func (l *Lake) Integrity() IntegrityStats { return l.logs.IntegrityStats() }

// SSDPool exposes the hot storage pool (fault scenarios inspect
// per-disk accounting).
func (l *Lake) SSDPool() *pool.Pool { return l.ssdPool }

// HDDPool exposes the warm storage pool.
func (l *Lake) HDDPool() *pool.Pool { return l.hddPool }

// Logs exposes the PLog manager (degraded-log introspection).
func (l *Lake) Logs() *plog.Manager { return l.logs }
