// Package chaos is a deterministic chaos harness for the full lake: a
// seeded scheduler hands each step to one of a fixed cast of actors, one
// per fault or workload plane, all of them on in every run against one
// fixed lake. Then each actor heals what it broke and the harness checks
// the invariants that define "resilient" — no acked write lost or
// appended twice, offsets monotonic, scans exact, cached reads equal to
// device reads, every ack in the replicated metadata log, redundancy
// restored — and the whole run replays bit-identically from its seed.
// Everything runs in virtual time, so a run is a pure function of its
// Config.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"time"

	"streamlake"
	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/resil"
	"streamlake/internal/sim"
	"streamlake/internal/tenant"
)

// Config selects one chaos run; the zero value is usable. Seed drives
// the scheduler, every actor's own RNG stream, the lake's fault RNGs and
// the producers' backoff jitter; Events is how many scheduler steps to
// run (default 400).
type Config struct {
	Seed   uint64
	Events int
}

// The lake every run uses and the bounds the actors draw in: the shape
// of the harness, not settings.
const (
	nodes, maxNodes = 5, 9 // founding members; elastic joins grow the cluster up to maxNodes
	workers         = 5
	streams         = 2 // few, so each buffers past the group-commit trigger
	cacheMB         = 16
	groupCommit     = 2 // full slices per coalesced device write
	dropRate        = 0.25
	maxDelay        = 2 * time.Millisecond
	deadline        = 50 * time.Millisecond // on every produce and poll
	topic, table    = "chaos", "chaos_t"
)

// Report is what one chaos run did and what it proved: one counter line
// per actor in cast order, the same counters keyed "actor.counter", the
// digest (FNV-1a over the lines, the acked set and the violations) and
// the violations, empty on a clean run.
type Report struct {
	Events     int
	Actors     []string
	Counters   map[string]int64
	Digest     uint64
	Violations []string
}

// actor is one fault or workload plane, with its own RNG stream so its
// draws never reshuffle another's. settle heals what it broke (actors
// settle in cast order); counters are its liveness counts.
type actor interface {
	act(h *harness)
	settle(h *harness)
	counters(h *harness) []counter
}

type counter struct {
	name string
	n    int64
}

// rngs is embedded by every actor that draws; its settle heals nothing.
type rngs struct{ rng *sim.RNG }

func (rngs) settle(*harness) {}

// role is one actor of the cast and its share of the scheduler's steps.
type role struct {
	name   string
	weight int
	a      actor
}

// cast builds every actor in schedule and settle order.
func cast(seed uint64) []role {
	r := func(i uint64) rngs { return rngs{sim.NewRNG(seed*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9)} }
	return []role{
		{"stream", 30, &streamActor{rngs: r(1)}},
		{"net", 6, &netActor{rngs: r(2)}},
		{"partitions", 3, &partitionActor{rngs: r(3)}},
		{"disks", 3, &diskActor{rngs: r(4)}},
		{"corruption", 2, &corruptActor{}},
		{"lakehouse", 14, &lakehouseActor{rngs: r(6)}},
		{"tenants", 14, &tenantActor{rngs: r(7)}},
		{"split-brain", 4, &splitActor{}},
		{"failover", 8, &failoverActor{rngs: r(9)}},
		{"elastic", 12, &elasticActor{rngs: r(10)}},
		{"repair", 4, &repairActor{rngs: r(11)}},
	}
}

// Run executes one chaos run and returns its report. A non-empty
// Report.Violations means an invariant broke; the error covers setup
// failures only.
func Run(cfg Config) (Report, error) {
	h, err := start(cfg)
	if err != nil {
		return Report{}, err
	}
	return h.finish(), nil
}

// RunWithReplay runs the same config twice and reports whether the two
// runs were bit-identical (same digest). The report is the first run's.
func RunWithReplay(cfg Config) (Report, bool, error) {
	a, err := Run(cfg)
	if err != nil {
		return a, false, err
	}
	b, err := Run(cfg)
	return a, err == nil && a.Digest == b.Digest, err
}

// Tail is one side of the hedging comparison.
type Tail struct {
	ReadP99 time.Duration // plog read p99 over this side's sweeps
	Hedged  int64         // reads that issued a hedge
	Wins    int64         // hedges that beat the primary
}

// HedgeComparison runs and settles cfg's schedule, slows by extra the SSD
// holding the fewest (but some) primary copies — the sick-but-alive disk
// hedged reads exist for, a minority so the hedge delay stays a healthy
// read's — and re-reads every stream from the devices with hedging on,
// then off: same schedule, data and slow disk, so the p99 gap is what
// hedging buys. The run's invariants are checked after both.
func HedgeComparison(cfg Config, extra time.Duration) (hedged, unhedged Tail, rep Report, err error) {
	h, err := start(cfg)
	if err != nil {
		return Tail{}, Tail{}, Report{}, err
	}
	h.readSweep(8) // warms the hedge tracker on healthy disks
	primaries := make([]int, h.lake.SSDPool().DiskCount())
	for _, li := range h.lake.Logs().Logs() {
		if pl := h.lake.Logs().Get(li.ID).Placement(); len(pl) == 3 {
			primaries[pl[0].Disk]++
		}
	}
	slow := 0
	for d, n := range primaries {
		if n > 0 && (primaries[slow] == 0 || n < primaries[slow]) {
			slow = d
		}
	}
	h.lake.Faults().DegradeDisk("ssd", slow, extra)
	hedged, unhedged = h.tail(true), h.tail(false)
	return hedged, unhedged, h.finish(), nil
}

// tail sets hedging on or off and re-reads the topic four times,
// reporting the read p99 and hedge counts of those sweeps alone.
func (h *harness) tail(on bool) Tail {
	h.lake.Logs().SetHedge(plog.HedgeConfig{Enabled: on, Quantile: 0.5, MinSamples: 8})
	hist := func() obs.HistogramSnapshot { return h.lake.Obs().Snapshot().Histograms["plog_read_seconds"] }
	before, hs := hist(), h.lake.HedgeStats()
	h.readSweep(4)
	after, hs2 := hist(), h.lake.HedgeStats()
	for i := range after.Buckets {
		after.Buckets[i] -= before.Buckets[i]
	}
	after.Count -= before.Count
	return Tail{ReadP99: after.Quantile(0.99), Hedged: hs2.Hedged - hs.Hedged, Wins: hs2.Wins - hs.Wins}
}

// start opens the fixed lake, runs cfg.Events scheduler steps and
// settles every actor.
func start(cfg Config) (*harness, error) {
	if cfg.Events <= 0 {
		cfg.Events = 400
	}
	lake, err := streamlake.Open(streamlake.Config{
		Nodes: nodes, Workers: workers, Seed: cfg.Seed, PLogCapacity: 1 << 20,
		CacheMB: cacheMB, GroupCommitSlices: groupCommit,
		Tenants: []streamlake.TenantConfig{
			{Name: "steady", Weight: 4, Priority: 0},
			{Name: "noisy", Weight: 1, Priority: 1, IOPS: 200, BandwidthBps: 256 << 10, CapacityBytes: 64 << 20},
		},
	})
	if err != nil {
		return nil, err
	}
	// Chaos runs see few, large slice reads, so warm the hedge tracker
	// faster and hedge off the median instead of the p95.
	lake.Logs().SetHedge(plog.HedgeConfig{Enabled: true, Quantile: 0.5, MinSamples: 8})
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: topic, StreamNum: streams}); err != nil {
		return nil, err
	}
	if err := lake.CreateTable(streamlake.TableMeta{Name: table, Schema: streamlake.MustSchema("k:string", "v:int64")}); err != nil {
		return nil, err
	}
	h := &harness{events: cfg.Events, lake: lake, cast: cast(cfg.Seed), acked: [streams]map[int64]string{{}, {}},
		last: [streams]int64{-1, -1}, prod: lake.Producer("chaos-producer"), cons: lake.Consumer("chaos-group")}
	if err := h.cons.Subscribe(topic); err != nil {
		return nil, err
	}
	var cum []int // cumulative schedule weights
	total := 0
	for _, c := range h.cast {
		total += c.weight
		cum = append(cum, total)
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x63_68_61_6f_73) // "chaos": picks each step's actor
	for i := 0; i < cfg.Events; i++ {
		// The trailing Tick keeps the failure detector and election
		// timers current with the virtual time the event consumed.
		h.cast[sort.SearchInts(cum, rng.Intn(total)+1)].a.act(h)
		h.lake.Cluster().Tick()
	}
	for _, c := range h.cast {
		c.a.settle(h)
	}
	return h, nil
}

type harness struct {
	events     int
	lake       *streamlake.Lake
	cast       []role
	prod       *streamlake.Producer
	cons       *streamlake.Consumer
	acked      [streams]map[int64]string // offset → key, per stream
	last       [streams]int64            // last consumed offset, per stream
	produced   int64
	drained    int64
	eventSeq   int
	split      []int // the standing metadata-plane split's minority, if any
	nodeKills  []int // nodes currently dead, oldest first
	violations []string
}

func (h *harness) violate(format string, args ...any) {
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

func (h *harness) ctx() *resil.Ctx { return resil.NewCtx(h.lake.Clock().Now(), deadline) }

func (h *harness) idle(rng *sim.RNG, max time.Duration) {
	h.lake.Clock().Advance(time.Duration(1+rng.Int63n(int64(max/time.Microsecond))) * time.Microsecond)
}

func (h *harness) nodeDown(node int) bool { return slices.Contains(h.nodeKills, node) }

// tolerates reports whether the lake's logs survive the SSD ssd (-1 for
// none) and every disk of the given nodes failing too: the fault budget
// the killing actors share, derived from the redundancy the logs use and
// the copies already stale or corrupt, not from a count of disks or
// nodes. A split spends it like a kill, as the majority declares the
// cut-off nodes dead; so does a node not yet readmitted since its verdict.
func (h *harness) tolerates(ssd int, nodes ...int) bool {
	v := h.lake.Cluster().CurrentView()
	return h.lake.Logs().Tolerates(0, func(p *pool.Pool, d pool.DiskID) bool {
		n := v.DiskNode[p.Name()][d]
		return p == h.lake.SSDPool() && int(d) == ssd || slices.Contains(nodes, n) || !v.Alive[n] && !v.Removed[n]
	})
}

// recordAck registers one acked produce, the system producer's or a
// tenant's, with the bookkeeping the final drain checks against.
func (h *harness) recordAck(msg streamlake.Message, key string) {
	h.produced++
	// With the metadata plane split, only the majority side commits.
	if l := h.lake.Cluster().Leader(); l >= 0 && slices.Contains(h.split, l) {
		h.violate("produce acked while the committing leader %d sits in the minority partition", l)
	}
	if prev, dup := h.acked[msg.Stream][msg.Offset]; dup {
		h.violate("stream %d offset %d acked twice (%s then %s)", msg.Stream, msg.Offset, prev, key)
	}
	h.acked[msg.Stream][msg.Offset] = key
}

// streamActor produces batches, polls as one consumer group checking
// offsets and keys, and lets virtual time pass so breaker cooldowns
// elapse and deadlines mean something.
type streamActor struct {
	rngs
	consumed int64
}

func (a *streamActor) act(h *harness) {
	switch r := a.rng.Intn(10); {
	case r < 5:
		for n := 1 + a.rng.Intn(96); n > 0; n-- {
			h.eventSeq++
			key := fmt.Sprintf("k%06d", h.eventSeq)
			// A send dropped past its retries, shed or out of deadline is
			// legitimate under chaos; only an ack creates obligations.
			if msg, _, err := h.prod.SendSpanCtx(topic, []byte(key), []byte("v"+key), nil, h.ctx()); err == nil {
				h.recordAck(msg, key)
			}
		}
	case r < 8:
		msgs, _, err := h.cons.PollSpanCtx(64, nil, h.ctx())
		if err != nil && !errors.Is(err, resil.ErrDeadlineExceeded) {
			h.violate("poll failed: %v", err)
			return
		}
		for _, m := range msgs {
			if last := h.last[m.Stream]; m.Offset <= last {
				h.violate("stream %d consumer offset went backwards: %d after %d", m.Stream, m.Offset, last)
			}
			h.last[m.Stream] = m.Offset
			if want, ok := h.acked[m.Stream][m.Offset]; ok && want != string(m.Key) {
				h.violate("stream %d offset %d delivered key %q, acked %q", m.Stream, m.Offset, m.Key, want)
			}
		}
		a.consumed += int64(len(msgs))
	default:
		h.idle(a.rng, 5*time.Millisecond)
	}
}

func (a *streamActor) counters(h *harness) []counter {
	c := h.lake.Obs().Snapshot().Counters
	return []counter{{"produced", h.produced}, {"consumed", a.consumed}, {"drained", h.drained},
		{"retries", c["streamsvc_retries_total"]}, {"sheds", c["streamsvc_breaker_sheds_total"]},
		{"trips", c["streamsvc_breaker_trips_total"]}, {"deadlines", c["streamsvc_deadline_exceeded_total"]},
		{"groupCommits", h.lake.GroupCommitStats().Commits}}
}

// netActor churns drop rates and delays on client↔worker links.
type netActor struct{ rngs }

func (a *netActor) act(h *harness) {
	np, worker := h.lake.Net(), fmt.Sprintf("worker/%d", a.rng.Intn(workers))
	switch a.rng.Intn(4) {
	case 0:
		np.SetDropRate("client", worker, dropRate*a.rng.Float64())
	case 1:
		np.SetDropRate(worker, "client", dropRate*a.rng.Float64())
	case 2:
		base := time.Duration(a.rng.Int63n(int64(maxDelay)))
		np.SetDelay("client", worker, base, base/2)
	default:
		np.SetDropRate("client", worker, 0)
		np.SetDelay("client", worker, 0, 0)
	}
}

// settle heals every standing link fault, the other actors' too, and
// lets breaker cooldowns elapse.
func (a *netActor) settle(h *harness) {
	h.lake.Net().HealAll()
	h.lake.Net().Clear()
	h.lake.Clock().Advance(50 * time.Millisecond)
}

func (a *netActor) counters(h *harness) []counter {
	ns := h.lake.Net().Stats()
	return []counter{{"drops", ns.Drops + ns.Blocked}}
}

// partitionActor cuts client→worker links outright and heals them
// oldest first.
type partitionActor struct {
	rngs
	cuts []string
	made int64
}

func (a *partitionActor) act(h *harness) {
	if len(a.cuts) > 0 && a.rng.Intn(2) == 0 {
		h.lake.Net().Heal("client", a.cuts[0])
		a.cuts = a.cuts[1:]
		return
	}
	worker := fmt.Sprintf("worker/%d", a.rng.Intn(workers))
	h.lake.Net().Partition("client", worker)
	a.cuts = append(a.cuts, worker)
	a.made++
}

func (a *partitionActor) settle(*harness) { a.cuts = nil } // net's settle healed them

func (a *partitionActor) counters(*harness) []counter { return []counter{{"cuts", a.made}} }

// diskActor kills and revives single SSDs of live members, within the
// fault budget.
type diskActor struct {
	rngs
	dead  []int // SSDs this actor killed, oldest first
	kills int64
}

func (a *diskActor) act(h *harness) {
	v := h.lake.Cluster().CurrentView()
	table := v.DiskNode["ssd"]
	if len(a.dead) > 0 && a.rng.Intn(2) == 0 {
		a.revive(h, a.dead[:1])
		a.dead = a.dead[1:]
		return
	}
	var cands []int
	for d, n := range table {
		if !h.lake.SSDPool().DiskFailed(pool.DiskID(d)) && !h.nodeDown(n) && !v.Removed[n] {
			cands = append(cands, d)
		}
	}
	if len(cands) == 0 {
		return
	}
	if d := cands[a.rng.Intn(len(cands))]; h.tolerates(d) && h.lake.Faults().KillDisk("ssd", d) == nil {
		a.dead = append(a.dead, d)
		a.kills++
	}
}

// revive brings disks back, but not one whose node died since (it comes
// back with its node) or was removed (it never does).
func (a *diskActor) revive(h *harness, disks []int) {
	v := h.lake.Cluster().CurrentView()
	for _, d := range disks {
		if n := v.DiskNode["ssd"][d]; !h.nodeDown(n) && !v.Removed[n] {
			h.lake.Faults().ReviveDisk("ssd", d)
		}
	}
}

func (a *diskActor) settle(h *harness) { a.revive(h, a.dead) }

func (a *diskActor) counters(*harness) []counter { return []counter{{"kills", a.kills}} }

// corruptActor flips bits in stored copies for scrub and verify-on-read
// to mask, while every log has a copy to spare: a found flip costs one.
type corruptActor struct{ flips int64 }

func (a *corruptActor) act(h *harness) {
	if !h.lake.Logs().Tolerates(1, func(*pool.Pool, pool.DiskID) bool { return false }) {
		return
	}
	if _, err := h.lake.Faults().CorruptRandom("ssd"); err == nil {
		a.flips++
	}
}

func (a *corruptActor) settle(*harness)             {}
func (a *corruptActor) counters(*harness) []counter { return []counter{{"flips", a.flips}} }

// lakehouseActor runs the lakehouse side: inserts, scans that must see
// exactly the acked rows, cache-coherence probes, and long time jumps
// followed by a tiering pass that migrates cold logs onto the
// compressing HDD tier.
type lakehouseActor struct {
	rngs
	rows      int64 // rows whose insert was acked
	coherence int64 // cache-coherence probes executed
}

func (a *lakehouseActor) act(h *harness) {
	switch r := a.rng.Intn(10); {
	case r < 4:
		n := 1 + a.rng.Intn(4)
		rows := make([]streamlake.Row, n)
		for j := range rows {
			seq := a.rows + int64(j)
			rows[j] = streamlake.Row{streamlake.StringValue(fmt.Sprintf("row%06d", seq)), streamlake.IntValue(seq)}
		}
		if h.lake.Insert(table, rows) != nil {
			return // a rejected insert creates no obligations
		}
		a.rows += int64(n)
		if a.rng.Intn(4) == 0 {
			// Scans see both the write cache and persistent snapshots.
			h.lake.FlushTable(table)
		}
	case r < 7:
		// A scan may fail while faults stand; one that completes must
		// count every acked row, 0 included.
		if res, err := h.lake.Query("select count(*) from " + table); err == nil {
			if got := fmt.Sprint(res.Rows); got != fmt.Sprintf("[[%d]]", a.rows) {
				h.violate("scan returned %s, want %d acked rows", got, a.rows)
			}
		}
	case r < 9:
		a.probe(h)
	default:
		// The cluster sees the jump before tiering places anything, as
		// it would have watched those minutes pass.
		h.lake.Clock().Advance(time.Duration(10+a.rng.Intn(111)) * time.Minute)
		h.lake.Cluster().Tick()
		h.lake.RunTiering(nil)
	}
}

// probe reads a random live extent range three ways — from the devices,
// through a (possibly cold) cache fill, and warm — and demands identical
// bytes: the cache may change cost, never content.
func (a *lakehouseActor) probe(h *harness) {
	infos := h.lake.Logs().Logs()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID }) // Logs drains a map
	infos = slices.DeleteFunc(infos, func(li plog.LogInfo) bool { return li.Size == 0 })
	if len(infos) == 0 {
		return
	}
	li := infos[a.rng.Intn(len(infos))]
	l := h.lake.Logs().Get(li.ID)
	n := min(int64(1+a.rng.Intn(4096)), li.Size)
	var off int64
	if li.Size > n {
		off = a.rng.Int63n(li.Size - n + 1)
	}
	direct, _, derr := l.ReadDirect(off, n)
	cold, _, cerr := l.Read(off, n)
	warm, _, werr := l.Read(off, n)
	a.coherence++
	if derr != nil || cerr != nil || werr != nil {
		return // coherence is only defined while the data is reachable
	}
	if !bytes.Equal(cold, direct) || !bytes.Equal(warm, direct) {
		h.violate("cached read diverged from device read: plog %d [%d,%d)", li.ID, off, off+n)
	}
}

// settle checks the cold tier: negotiation keeps an extent raw rather
// than let a codec inflate it.
func (a *lakehouseActor) settle(h *harness) {
	if cs := h.lake.Logs().CompressionStats(); cs.CompressedBytes > cs.RawBytes {
		h.violate("compression inflated cold storage: %d compressed > %d raw", cs.CompressedBytes, cs.RawBytes)
	}
}

func (a *lakehouseActor) counters(h *harness) []counter {
	cs, ch := h.lake.Logs().CompressionStats(), h.lake.Cache().Stats()
	return []counter{{"rows", a.rows}, {"coherence", a.coherence}, {"cacheHits", ch.DRAMHits + ch.SCMHits},
		{"coldLogs", int64(cs.CompressedLogs)}, {"coldRaw", cs.RawBytes}, {"coldComp", cs.CompressedBytes}}
}

// tenantActor interleaves two tenants: "steady", protected and in
// quota, and "noisy", lower priority, bursting large values far past
// its bandwidth quota. An acked tenant write joins the obligations; a
// throttled or shed one creates none.
type tenantActor struct {
	rngs
	steady, noisy                                                  *streamlake.Producer
	noisyAcked, noisyLimited, noisyShed, steadyAcked, steadyDenied int64
}

func (a *tenantActor) act(h *harness) {
	if a.steady == nil {
		a.steady = h.lake.TenantProducer("chaos-steady", "steady")
		a.noisy = h.lake.TenantProducer("chaos-noisy", "noisy")
	}
	switch r := a.rng.Intn(10); {
	case r < 5: // a noisy burst
		for n := 2 + a.rng.Intn(3); n > 0; n-- {
			a.send(h, a.noisy, "nk", bytes.Repeat([]byte{'n'}, 4096+a.rng.Intn(4096)), &a.noisyAcked, &a.noisyLimited, &a.noisyShed)
		}
	case r < 9:
		a.send(h, a.steady, "sk", []byte("sv"), &a.steadyAcked, &a.steadyDenied, &a.steadyDenied)
	default:
		h.idle(a.rng, 2*time.Millisecond) // quota buckets refill
	}
}

// send produces one value and counts it acked, throttled by quota, or
// shed.
func (a *tenantActor) send(h *harness, p *streamlake.Producer, prefix string, val []byte, acked, limited, shed *int64) {
	h.eventSeq++
	key := fmt.Sprintf("%s%06d", prefix, h.eventSeq)
	msg, _, err := p.SendSpanCtx(topic, []byte(key), val, nil, h.ctx())
	switch {
	case err == nil:
		*acked++
		h.recordAck(msg, key)
	case errors.Is(err, tenant.ErrShed):
		*shed++
	case errors.Is(err, tenant.ErrOverQuota):
		*limited++
	}
}

func (a *tenantActor) counters(*harness) []counter {
	return []counter{{"noisyAcked", a.noisyAcked}, {"noisyLimited", a.noisyLimited}, {"noisyShed", a.noisyShed},
		{"steadyAcked", a.steadyAcked}, {"steadyDenied", a.steadyDenied}}
}

// splitActor cuts the metadata plane in two — the current leader plus
// enough voters for a minority on one side, everyone else on the other
// — within the fault budget, or heals the standing split. Client links
// stay up: appends land, but acks must wait for a majority-side commit,
// which recordAck enforces.
type splitActor struct{ splits int64 }

func (a *splitActor) act(h *harness) {
	cl := h.lake.Cluster()
	if lead := cl.Leader(); h.split != nil {
		a.settle(h)
	} else if len(h.nodeKills) == 0 && lead >= 0 { // one membership experiment at a time
		// Size the minority against the voters: tombstoned or
		// still-joining IDs hold no votes.
		v, cut := cl.CurrentView(), []int{lead}
		for i := 0; len(cut) < (cl.Voters()-1)/2 && i < cl.Nodes(); i++ {
			if i != lead && !v.Removed[i] && !v.Joining[i] {
				cut = append(cut, i)
			}
		}
		if h.tolerates(-1, cut...) {
			h.split = cut
			a.cut(h, h.lake.Net().Partition)
			a.splits++
		}
	}
}

// cut applies f to both directions of every link between the split's
// minority and the other nodes.
func (a *splitActor) cut(h *harness, f func(from, to string)) {
	for x := range h.lake.Cluster().Nodes() {
		for y := range h.lake.Cluster().Nodes() {
			if slices.Contains(h.split, x) && !slices.Contains(h.split, y) {
				ex, ey := fmt.Sprintf("node/%d", x), fmt.Sprintf("node/%d", y)
				f(ex, ey)
				f(ey, ex)
			}
		}
	}
}

func (a *splitActor) settle(h *harness) {
	a.cut(h, h.lake.Net().Heal)
	h.split = nil
}

func (a *splitActor) counters(*harness) []counter { return []counter{{"splits", a.splits}} }

// failoverActor kills and revives whole nodes: at most a minority of
// the voters down at once (without a quorum zero loss is unprovable),
// within the fault budget, half the kills aimed at the metadata leader.
type failoverActor struct {
	rngs
	kills int64
}

func (a *failoverActor) act(h *harness) {
	cl := h.lake.Cluster()
	if len(h.nodeKills) > 0 && (len(h.nodeKills) >= (cl.Voters()-1)/2 || a.rng.Intn(3) == 0) {
		cl.ReviveNode(h.nodeKills[0])
		h.nodeKills = h.nodeKills[1:]
		return
	}
	victim := a.rng.Intn(cl.Nodes())
	if l := cl.Leader(); a.rng.Intn(2) == 0 && l >= 0 {
		victim = l
	}
	if !h.nodeDown(victim) && h.tolerates(-1, victim) && cl.KillNode(victim) == nil {
		h.nodeKills = append(h.nodeKills, victim)
		a.kills++
	}
}

// settle revives every dead node and ticks until each revival commits
// and a leader stands.
func (a *failoverActor) settle(h *harness) {
	cl := h.lake.Cluster()
	for _, node := range h.nodeKills {
		cl.ReviveNode(node)
	}
	h.nodeKills = nil
	for i := 0; i < 512; i++ {
		v, all := cl.CurrentView(), cl.Leader() >= 0
		for n := 0; n < cl.Nodes(); n++ {
			all = all && (v.Alive[n] || v.Removed[n]) // a tombstone never comes back
		}
		if all {
			return
		}
		h.lake.Clock().Advance(time.Millisecond)
		cl.Tick()
	}
}

func (a *failoverActor) counters(h *harness) []counter {
	cs := h.lake.Cluster().Stats()
	return []counter{{"nodeKills", a.kills}, {"elections", cs.Elections}, {"metaCommits", cs.Commits}}
}

// elasticActor grows and shrinks the cluster through the ProposeJoin and
// ProposeRemove paths lakectl drives, checking every join against the
// movement bound the planner promised, (1/(N+1))·(1+slack) of the live
// bytes. It removes only joined nodes, so the founding quorum survives.
// A change that fails under standing faults resumes later or at settle.
type elasticActor struct{ rngs }

func (a *elasticActor) act(h *harness) {
	cl := h.lake.Cluster()
	switch r := a.rng.Intn(10); {
	case r < 5:
		if n := cl.Nodes(); n < maxNodes && cl.ProposeJoin(n) == nil {
			a.checkJoin(h)
		}
	case r < 7:
		v := cl.CurrentView()
		for i := cl.Nodes() - 1; i >= nodes; i-- {
			if !v.Removed[i] && !v.Joining[i] && !v.Leaving[i] && !h.nodeDown(i) {
				cl.ProposeRemove(i)
				return
			}
		}
	default:
		h.idle(a.rng, 3*time.Millisecond) // learner catch-up and drains progress
	}
}

func (a *elasticActor) checkJoin(h *harness) {
	if rep := h.lake.Cluster().LastJoin(); rep.MovedBytes > rep.BoundBytes {
		h.violate("join of node %d scheduled %d bytes to move, bound %d", rep.Node, rep.MovedBytes, rep.BoundBytes)
	}
}

// settle finishes every membership change the schedule interrupted: with
// faults healed both proposals resume and commit within a few ticks.
func (a *elasticActor) settle(h *harness) {
	cl := h.lake.Cluster()
	for i := 0; i < 128; i++ {
		v := cl.CurrentView()
		pending := slices.IndexFunc(v.Joining, func(j bool) bool { return j })
		if l := slices.Index(v.Leaving, true); pending < 0 || l >= 0 && l < pending {
			pending = l
		}
		if pending < 0 {
			return
		}
		var err error
		if v.Leaving[pending] {
			err = cl.ProposeRemove(pending)
		} else if err = cl.ProposeJoin(pending); err == nil {
			a.checkJoin(h)
		}
		if err != nil {
			h.lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	h.violate("settle could not commit every membership change")
}

func (a *elasticActor) counters(h *harness) []counter {
	cs := h.lake.Cluster().Stats()
	return []counter{{"joins", cs.Joins}, {"removes", cs.Removes},
		{"joinMoved", cs.JoinMovedBytes}, {"evacuated", cs.EvacuatedBytes}}
}

// repairActor runs repair passes and, half the time, a scrub. Its
// settle is the bounded rebalance that must restore full redundancy.
type repairActor struct {
	rngs
	rebalanced int64
}

func (a *repairActor) act(h *harness) {
	h.lake.RunRepair()
	if a.rng.Intn(2) == 0 {
		h.lake.RunScrub()
	}
}

func (a *repairActor) settle(h *harness) {
	reb := h.lake.Cluster().RunRebalance(2 * time.Second)
	if !reb.Complete {
		h.violate("rebalance left %d degraded logs (%d stale bytes) after its budget", reb.RemainingLogs, reb.RemainingStale)
	}
	a.rebalanced = reb.RepairedBytes
	h.lake.RunScrub()
}

func (a *repairActor) counters(h *harness) []counter {
	hs := h.lake.HedgeStats()
	return []counter{{"rebalanced", a.rebalanced}, {"hedged", hs.Hedged}, {"hedgeWins", hs.Wins}}
}

// readAll subscribes a consumer of group and polls the topic until two
// polls in a row come back empty, handing each message to each; before
// every pass of a sweep (passes > 1) it seeks back to offset zero with
// the read cache emptied, so each pass reads devices.
func (h *harness) readAll(group string, passes int, each func(streamlake.Message)) {
	c := h.lake.Consumer(group)
	if err := c.Subscribe(topic); err != nil {
		h.violate("%s subscribe: %v", group, err)
		return
	}
	for pass := 0; pass < passes; pass++ {
		h.lake.FlushCache()
		for s := 0; s < streams; s++ {
			c.Seek(topic, s, 0)
		}
		for empty := 0; empty < 2; {
			msgs, _, err := c.Poll(256)
			if err != nil {
				h.violate("%s poll: %v", group, err)
				return
			}
			if empty++; len(msgs) > 0 {
				empty = 0
			}
			for _, m := range msgs {
				each(m)
			}
		}
	}
}

func (h *harness) readSweep(passes int) {
	h.readAll("chaos-sweeper", passes, func(streamlake.Message) {})
}

// finish drains every stream from offset zero under a fresh group and
// checks the end-of-run invariants: every acked write is there exactly
// once with its acked key and sits in the applied metadata log, no term
// elected two leaders, no committed entry differed between nodes, and
// Log Matching holds. Then it reports.
func (h *harness) finish() Report {
	seen := map[int]map[int64]string{}
	h.readAll("chaos-verifier", 1, func(m streamlake.Message) {
		h.drained++
		if seen[m.Stream] == nil {
			seen[m.Stream] = map[int64]string{}
		}
		if _, dup := seen[m.Stream][m.Offset]; dup {
			h.violate("drain: stream %d offset %d delivered twice", m.Stream, m.Offset)
		}
		seen[m.Stream][m.Offset] = string(m.Key)
	})
	cl := h.lake.Cluster()
	for stream, offsets := range h.acked {
		for off, key := range offsets {
			if got, ok := seen[stream][off]; !ok {
				h.violate("acked write lost: stream %d offset %d (%s)", stream, off, key)
			} else if got != key {
				h.violate("acked write mangled: stream %d offset %d has %q, want %q", stream, off, got, key)
			}
			if !cl.ProduceCommitted(topic, stream, off, 1) {
				h.violate("acked produce missing from the metadata log: stream %d offset %d", stream, off)
			}
		}
	}
	for term, wins := range cl.LeaderCountByTerm() {
		if wins > 1 {
			h.violate("term %d elected %d leaders", term, wins)
		}
	}
	if err := cl.CheckLogMatching(); err != nil {
		h.violate("%v", err)
	}
	if d := cl.Stats().Diverged; d != 0 {
		h.violate("%d committed log entries diverged between nodes", d)
	}
	return h.report()
}

// report renders every actor's counter line and the digest: FNV-1a over
// the lines, the acked set in order and the violations. Two runs of the
// same config must produce the same digest.
func (h *harness) report() Report {
	r := Report{Events: h.events, Counters: map[string]int64{}, Violations: h.violations}
	for _, role := range h.cast {
		line := role.name + ":"
		for _, c := range role.a.counters(h) {
			line += fmt.Sprintf(" %s=%d", c.name, c.n)
			r.Counters[role.name+"."+c.name] = c.n
		}
		r.Actors = append(r.Actors, line)
	}
	d := fnv.New64a()
	fmt.Fprintf(d, "%s;", strings.Join(r.Actors, ";"))
	for st := 0; st < streams; st++ {
		offs := make([]int64, 0, len(h.acked[st]))
		for off := range h.acked[st] {
			offs = append(offs, off)
		}
		slices.Sort(offs)
		fmt.Fprintf(d, "stream=%d;", st)
		for _, off := range offs {
			fmt.Fprintf(d, "%d=%s;", off, h.acked[st][off])
		}
	}
	for _, v := range h.violations {
		fmt.Fprintf(d, "violation=%s;", v)
	}
	r.Digest = d.Sum64()
	return r
}
