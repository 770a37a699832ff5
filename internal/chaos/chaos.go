// Package chaos is a deterministic chaos harness for the full lake: a
// seeded scheduler composes network drops, delays, directed partitions,
// disk kills, silent corruption, and repair/scrub passes against a
// produce/consume workload, then checks the invariants that define
// "resilient" — no acked write is lost, retries never double-append,
// consumer offsets stay monotonic, and the whole run replays
// bit-identically from the same seed.
//
// Everything runs in virtual time: the harness advances the lake's
// clock explicitly between events, so a run is a pure function of its
// Config.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"streamlake"
	"streamlake/internal/cluster"
	"streamlake/internal/plog"
	"streamlake/internal/resil"
	"streamlake/internal/sim"
	"streamlake/internal/tenant"
)

// Config parameterizes one chaos run. The zero value is usable; Seed
// selects the schedule.
type Config struct {
	// Seed drives the event scheduler, the lake's fault RNGs, and the
	// producers' backoff jitter. Same seed, same run.
	Seed uint64
	// Events is how many scheduler steps to run (default 400).
	Events int
	// Streams is the topic's stream count (default 4).
	Streams int
	// Workers sizes the stream worker fleet (default 3).
	Workers int
	// Hedging enables hedged replica reads.
	Hedging bool
	// DropRate bounds the per-link drop rates the scheduler injects
	// (default 0.25).
	DropRate float64
	// MaxDelay bounds injected link delays (default 2ms).
	MaxDelay time.Duration
	// DiskKills lets the scheduler kill and revive SSDs (at most two
	// down at once, inside 3x replication's loss tolerance).
	DiskKills bool
	// Corruption lets the scheduler flip bits in stored copies (the
	// scrubber and verify-on-read must mask them).
	Corruption bool
	// Partitions lets the scheduler cut client→worker links outright.
	Partitions bool
	// DeadlineMS, when > 0, attaches a virtual-time deadline to every
	// produce and poll.
	DeadlineMS int64
	// CacheMB sizes the lake's two-tier read cache (0 = disabled).
	CacheMB int
	// Mixed interleaves lakehouse inserts, scans, tiering passes, and
	// cache-coherence probes with the streaming schedule — the
	// everything-at-once workload. The probes enforce the cache
	// invariant: a cached read never differs from a device read. Its
	// tiering passes migrate quiescent logs onto the HDD pool, where
	// they compress, so the standard invariants cover compressed extents
	// too: probes demand cached ≡ device bytes across codec transitions,
	// the drain proves acked writes survive a compress/decompress round
	// trip bit-exact, and the digest folds in the cold-tier counters.
	Mixed bool
	// GroupCommit runs the lake with slice group commit on (4 slices per
	// coalesced device write), so the loss/duplication invariants and the
	// replay digest are checked over the batched flush path.
	GroupCommit bool
	// NoisyNeighbor runs the lake with the tenant QoS plane on and
	// interleaves two tenants with the fault schedule: "steady", a
	// protected in-quota tenant, and "noisy", a lower-priority tenant
	// that bursts large values far past its bandwidth quota. The
	// standard invariants extend over both: an acked tenant write is
	// never lost, a throttled or shed one creates no obligations, and
	// the run replays bit-identically.
	NoisyNeighbor bool
	// Nodes runs the lake as a multi-node cluster of this size. Set
	// (or implied by Failover/SplitBrain, which default it to 5) it adds
	// the cluster-plane invariants: every acked produce is in the
	// replicated metadata log, committed logs agree across nodes, and at
	// most one leader wins any term.
	Nodes int
	// Failover lets the scheduler kill and revive whole nodes — at most
	// a minority down at once, with a thumb on the scale toward killing
	// the current metadata leader.
	Failover bool
	// SplitBrain lets the scheduler cut the metadata plane into a
	// minority holding the current leader and a majority that must
	// re-elect; acks may only come from the majority side while the
	// split stands.
	SplitBrain bool
	// Elastic lets the scheduler grow and shrink the cluster at runtime,
	// up to nine nodes: joins go learner → catch-up → committed config
	// entry, removals go drain → relocate → committed tombstone, both
	// through the same replicated-log path lakectl uses. Every
	// successful join is checked against the movement bound the
	// rebalance planner promised — at most (1/(N+1))·(1+slack) of the
	// live bytes. Composes with Failover and SplitBrain for the
	// join-under-fire drill; implies Nodes=5 when Nodes is unset.
	Elastic bool
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 400
	}
	if c.Streams <= 0 {
		c.Streams = 4
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.DropRate <= 0 {
		c.DropRate = 0.25
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if (c.Failover || c.SplitBrain || c.Elastic) && c.Nodes <= 1 {
		c.Nodes = 5
	}
	return c
}

// Report is what one chaos run did and what it proved.
type Report struct {
	Events       int
	Produced     int64 // messages acked to producers
	Consumed     int64 // messages delivered during the run
	Drained      int64 // messages read back by the final full drain
	Retries      int64
	NetDrops     int64
	Sheds        int64
	Trips        int64
	Deadlines    int64
	Hedged       int64
	HedgeWins    int64
	DiskKills    int
	Corrupted    int
	TableRows    int64         // rows committed to the lakehouse table (Mixed runs)
	Coherence    int           // cached-vs-device read probes executed (Mixed runs)
	GroupCommits int64         // coalesced slice commits (GroupCommit runs)
	CacheHits    int64         // read-cache hits across both tiers at run end
	ReadP99      time.Duration // plog read latency p99 at run end
	NoisyAcked   int64         // noisy-tenant sends acked (NoisyNeighbor runs)
	NoisyLimited int64         // noisy-tenant sends throttled by quota
	NoisyShed    int64         // noisy-tenant sends shed under overload
	SteadyAcked  int64         // steady-tenant sends acked
	SteadyDenied int64         // steady-tenant sends throttled or shed (should stay rare)
	ColdLogs     int           // logs holding compressed extents at run end (Mixed runs)
	ColdRawB     int64         // logical bytes those logs hold
	ColdCompB    int64         // those bytes as stored after codec negotiation
	NodeKills    int           // whole-node kills (Failover runs)
	Elections    int64         // metadata-leader elections (clustered runs)
	MetaCommits  int64         // metadata-log commits (clustered runs)
	RebalancedB  int64         // bytes re-replicated by the settle rebalance
	RebalanceOK  bool          // settle rebalance restored full redundancy
	Joins        int           // committed runtime node joins (Elastic runs)
	Removes      int           // committed runtime node removals (Elastic runs)
	JoinMovedB   int64         // live bytes join rebalances scheduled to move
	EvacuatedB   int64         // live bytes relocated off leaving nodes
	Digest       uint64        // FNV-1a over the run's observable outcome
	Violations   []string      // empty on a clean run
}

const topic = "chaos"

// Run executes one chaos run and returns its report. A non-empty
// Report.Violations means an invariant broke; the error covers setup
// failures only.
func Run(cfg Config) (Report, error) { return run(cfg, 0) }

// RunDegraded is Run with an extra phase: after the fault schedule
// settles, one SSD is slowed by extra latency and every stream is
// re-read end to end several times — the sick-but-alive device
// scenario hedged reads exist for. Comparing the resulting ReadP99
// with and without Config.Hedging on the same seed quantifies what
// hedging buys.
func RunDegraded(cfg Config, extra time.Duration) (Report, error) { return run(cfg, extra) }

func run(cfg Config, degrade time.Duration) (Report, error) {
	cfg = cfg.withDefaults()
	lakeCfg := streamlake.Config{
		Workers:      cfg.Workers,
		Seed:         cfg.Seed,
		PLogCapacity: 1 << 20,
		CacheMB:      cfg.CacheMB,
		Nodes:        cfg.Nodes,
	}
	if cfg.GroupCommit {
		lakeCfg.GroupCommitSlices = 4
	}
	if cfg.NoisyNeighbor {
		lakeCfg.Tenants = []streamlake.TenantConfig{
			{Name: "steady", Weight: 4, Priority: 0},
			{Name: "noisy", Weight: 1, Priority: 1, IOPS: 200, BandwidthBps: 256 << 10, CapacityBytes: 64 << 20},
		}
	}
	lake, err := streamlake.Open(lakeCfg)
	if err != nil {
		return Report{}, err
	}
	// Chaos runs see few, large slice reads, so warm the hedge tracker
	// faster and hedge off the median instead of the p95; with Hedging
	// off the same config leaves hedging disabled (the tail-latency
	// baseline: a slow replica is simply waited out).
	lake.Logs().SetHedge(plog.HedgeConfig{Enabled: cfg.Hedging, Quantile: 0.5, MinSamples: 8})
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: topic, StreamNum: cfg.Streams}); err != nil {
		return Report{}, err
	}
	h := &harness{
		cfg:   cfg,
		lake:  lake,
		rng:   sim.NewRNG(cfg.Seed ^ 0x63_68_61_6f_73), // "chaos"
		acked: map[int]map[int64]string{},
		last:  map[int]int64{},
	}
	h.prod = lake.Producer("chaos-producer")
	if cfg.NoisyNeighbor {
		h.prodSteady = lake.TenantProducer("chaos-steady", "steady")
		h.prodNoisy = lake.TenantProducer("chaos-noisy", "noisy")
	}
	h.cons = lake.Consumer("chaos-group")
	if err := h.cons.Subscribe(topic); err != nil {
		return Report{}, err
	}
	for i := 0; i < cfg.Events; i++ {
		h.step(i)
	}
	h.settle()
	if degrade > 0 {
		// One healthy pass first so the hedge latency tracker is warm —
		// the comparison then measures steady-state hedging, not the
		// cold start (run in both modes for a like-for-like schedule).
		h.readSweep(1)
		lake.Faults().DegradeDisk("ssd", 0, degrade)
		h.readSweep(4)
	}
	h.drainAndCheck()
	h.clusterCheck()
	return h.report(), nil
}

// RunWithReplay runs the same config twice and reports whether the two
// runs were bit-identical (same digest). The returned report is the
// first run's.
func RunWithReplay(cfg Config) (Report, bool, error) {
	a, err := Run(cfg)
	if err != nil {
		return Report{}, false, err
	}
	b, err := Run(cfg)
	if err != nil {
		return a, false, err
	}
	return a, a.Digest == b.Digest, nil
}

type harness struct {
	cfg        Config
	lake       *streamlake.Lake
	rng        *sim.RNG
	prod       *streamlake.Producer
	prodSteady *streamlake.Producer
	prodNoisy  *streamlake.Producer
	cons       *streamlake.Consumer

	acked      map[int]map[int64]string // stream → offset → key
	last       map[int]int64            // stream → last consumed offset (monotonicity)
	produced   int64
	consumed   int64
	drained    int64
	eventSeq   int
	kills      []string // "pool/disk" currently dead, oldest first
	killCount  int
	corrupted  int
	partitions [][2]string
	violations []string

	// NoisyNeighbor state.
	noisyAcked     int64
	noisyThrottled int64
	noisyShed      int64
	steadyAcked    int64
	steadyDenied   int64

	// Mixed-workload state.
	tableMade bool
	tableRows int64 // rows whose insert was acked
	coherence int   // cache-coherence probes executed

	// Cluster-mode state.
	nodeKills     []int // nodes currently dead, oldest first
	nodeKillCount int
	split         *splitState
	reb           cluster.RebalanceReport
}

// splitState is one standing metadata-plane partition.
type splitState struct {
	minority map[int]bool
	links    [][2]string
}

func (h *harness) clustered() *cluster.Cluster { return h.lake.Cluster() }

func (h *harness) violate(format string, args ...any) {
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

func (h *harness) ctx() *resil.Ctx {
	if h.cfg.DeadlineMS <= 0 {
		return nil
	}
	return resil.NewCtx(h.lake.Clock().Now(), time.Duration(h.cfg.DeadlineMS)*time.Millisecond)
}

// step runs one weighted scheduler event.
func (h *harness) step(i int) {
	// Cluster-mode draws are gated on their flags, so legacy schedules
	// (and their digests) are untouched; the trailing Tick keeps the
	// detector and election timers current with whatever virtual time the
	// event consumed.
	if cl := h.clustered(); cl != nil {
		defer cl.Tick()
	}
	if h.cfg.Failover && h.rng.Intn(12) == 0 {
		h.failoverEvent()
		return
	}
	if h.cfg.SplitBrain && h.rng.Intn(20) == 0 {
		h.splitBrainEvent()
		return
	}
	if h.cfg.Elastic && h.rng.Intn(10) == 0 {
		h.elasticEvent()
		return
	}
	if h.cfg.Mixed && h.rng.Intn(5) == 0 {
		// One event in five goes to the lakehouse side of the house. The
		// extra RNG draw happens only on Mixed runs, so non-mixed
		// schedules (and their digests) are untouched.
		h.mixedEvent()
		return
	}
	if h.cfg.NoisyNeighbor && h.rng.Intn(3) == 0 {
		// One event in three goes to the tenant pair. Like the Mixed
		// gate, the draw only happens when the mode is on, so legacy
		// schedules and digests are byte-identical with Tenants empty.
		h.tenantEvent()
		return
	}
	switch r := h.rng.Intn(100); {
	case r < 40:
		h.produce()
	case r < 60:
		h.consume()
	case r < 70:
		h.netChurn()
	case r < 75:
		if h.cfg.Partitions {
			h.partitionChurn()
		}
	case r < 80:
		if h.cfg.DiskKills {
			h.diskChurn()
		}
	case r < 83:
		if h.cfg.Corruption {
			if _, err := h.lake.Faults().CorruptRandom("ssd"); err == nil {
				h.corrupted++
			}
		}
	case r < 88:
		h.lake.RunRepair()
		if h.rng.Intn(2) == 0 {
			h.lake.RunScrub()
		}
	default:
		// Let virtual time pass: breaker cooldowns elapse, deadlines
		// become meaningful, tiering/repair timestamps move.
		h.lake.Clock().Advance(time.Duration(1+h.rng.Intn(5000)) * time.Microsecond)
	}
}

// failoverEvent kills or revives a whole node. At most a minority is
// ever down at once (a majority loss makes zero-loss unprovable — there
// is no quorum to ack against), and half the kills aim straight at the
// current metadata leader, the paper's hardest failover case.
func (h *harness) failoverEvent() {
	cl := h.clustered()
	n := cl.Nodes()
	// The down budget counts against the quorum denominator, not the
	// node-ID space: after elastic removals, tombstoned IDs still occupy
	// slots but hold no votes. Voters() == Nodes() on static clusters.
	maxDown := (cl.Voters() - 1) / 2
	if len(h.nodeKills) > 0 && (len(h.nodeKills) >= maxDown || h.rng.Intn(3) == 0) {
		node := h.nodeKills[0]
		h.nodeKills = h.nodeKills[1:]
		cl.ReviveNode(node)
		return
	}
	victim := h.rng.Intn(n)
	if h.rng.Intn(2) == 0 {
		if l := cl.Leader(); l >= 0 {
			victim = l
		}
	}
	for _, k := range h.nodeKills {
		if k == victim {
			return
		}
	}
	if err := cl.KillNode(victim); err == nil {
		h.nodeKills = append(h.nodeKills, victim)
		h.nodeKillCount++
	}
}

// splitBrainEvent cuts the metadata plane in two — the current leader
// plus enough followers to form a minority on one side, everyone else
// on the other — or heals a standing split. The data plane (client to
// worker links) stays connected: appends still land, but acks must wait
// for a majority-side commit, which is exactly the property the produce
// check below enforces.
func (h *harness) splitBrainEvent() {
	cl := h.clustered()
	np := h.lake.Net()
	if h.split != nil {
		for _, p := range h.split.links {
			np.Heal(p[0], p[1])
		}
		h.split = nil
		return
	}
	if len(h.nodeKills) > 0 {
		return // one membership experiment at a time
	}
	lead := cl.Leader()
	if lead < 0 {
		return
	}
	// Size the minority against the voter set, not the node-ID space:
	// with tombstoned or still-joining IDs in the count, an ID-based
	// "minority" could accidentally hold a voter quorum and legally ack.
	// On static clusters every node is a voter, so the set (and the
	// digest) is unchanged.
	n := cl.Nodes()
	v := cl.CurrentView()
	voters := 0
	for i := 0; i < n; i++ {
		if !v.Removed[i] && !v.Joining[i] {
			voters++
		}
	}
	minority := map[int]bool{lead: true}
	for i := 0; len(minority) < (voters-1)/2 && i < n; i++ {
		if i != lead && !v.Removed[i] && !v.Joining[i] {
			minority[i] = true
		}
	}
	var links [][2]string
	for a := 0; a < n; a++ {
		if !minority[a] {
			continue
		}
		for b := 0; b < n; b++ {
			if minority[b] {
				continue
			}
			ea, eb := fmt.Sprintf("node/%d", a), fmt.Sprintf("node/%d", b)
			np.Partition(ea, eb)
			np.Partition(eb, ea)
			links = append(links, [2]string{ea, eb}, [2]string{eb, ea})
		}
	}
	h.split = &splitState{minority: minority, links: links}
}

// elasticEvent grows or shrinks the cluster at runtime, through the
// same ProposeJoin/ProposeRemove paths lakectl drives. A join admits
// node Nodes() as a learner, catches it up from the leader's log, and
// commits the promotion; the movement bound the rebalance planner
// promised — (1/(N+1))·(1+slack) of the live bytes — is checked on
// every success. A removal drains the newest runtime-joined node and
// commits its tombstone; founding members are never removed, so the
// birth quorum always survives the schedule. Failures under standing
// faults (no leader, partitioned joiner, thin quorum) are legitimate:
// later events or settle retry the half-done change.
func (h *harness) elasticEvent() {
	cl := h.clustered()
	switch r := h.rng.Intn(10); {
	case r < 5:
		n := cl.Nodes()
		if n >= 9 {
			return
		}
		if err := cl.ProposeJoin(n); err != nil {
			return
		}
		rep := cl.LastJoin()
		if rep.MovedBytes > rep.BoundBytes {
			h.violate("join of node %d scheduled %d bytes to move, bound %d",
				rep.Node, rep.MovedBytes, rep.BoundBytes)
		}
	case r < 7:
		v := cl.CurrentView()
		victim := -1
		for i := cl.Nodes() - 1; i >= h.cfg.Nodes; i-- {
			if v.Removed[i] || v.Joining[i] || v.Leaving[i] || h.nodeDown(i) {
				continue
			}
			victim = i
			break
		}
		if victim < 0 {
			return
		}
		cl.ProposeRemove(victim)
	default:
		// Let the membership plane breathe: heartbeats flow, learner
		// promotions and drains make progress between pushes.
		h.lake.Clock().Advance(time.Duration(1+h.rng.Intn(3000)) * time.Microsecond)
	}
}

func (h *harness) nodeDown(node int) bool {
	for _, k := range h.nodeKills {
		if k == node {
			return true
		}
	}
	return false
}

const mixedTable = "chaos_t"

// mixedEvent runs one lakehouse-side event: an insert, a scan that must
// see exactly the acked rows, a cache-coherence probe, or a long time
// jump followed by a tiering pass that physically migrates cold logs.
func (h *harness) mixedEvent() {
	switch r := h.rng.Intn(10); {
	case r < 4:
		h.insertRows()
	case r < 7:
		h.scanTable()
	case r < 9:
		h.checkCacheCoherence()
	default:
		h.lake.Clock().Advance(time.Duration(10+h.rng.Intn(111)) * time.Minute)
		h.lake.RunTiering()
	}
}

func (h *harness) ensureTable() bool {
	if h.tableMade {
		return true
	}
	err := h.lake.CreateTable(streamlake.TableMeta{
		Name:   mixedTable,
		Schema: streamlake.MustSchema("k:string", "v:int64"),
	})
	if err != nil {
		return false
	}
	h.tableMade = true
	return true
}

func (h *harness) insertRows() {
	if !h.ensureTable() {
		return
	}
	n := 1 + h.rng.Intn(4)
	rows := make([]streamlake.Row, 0, n)
	for j := 0; j < n; j++ {
		seq := h.tableRows + int64(j)
		rows = append(rows, streamlake.Row{
			streamlake.StringValue(fmt.Sprintf("row%06d", seq)),
			streamlake.IntValue(seq),
		})
	}
	if err := h.lake.Insert(mixedTable, rows); err != nil {
		// Rejected inserts create no obligations, same as nacked sends.
		return
	}
	h.tableRows += int64(n)
	if h.rng.Intn(4) == 0 {
		// Fold the write cache occasionally so scans exercise both the
		// pending set and persistent snapshots (and the manifest cache
		// sees real commits to invalidate).
		h.lake.FlushTable(mixedTable)
	}
}

func (h *harness) scanTable() {
	if !h.tableMade {
		return
	}
	res, err := h.lake.Query("select count(*) from " + mixedTable)
	if err != nil {
		// Scans can fail while faults are live; correctness is only
		// defined for scans that complete.
		return
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		h.violate("mixed scan returned malformed result: %v", res.Rows)
		return
	}
	got, _ := strconv.ParseInt(res.Rows[0][0], 10, 64)
	if got != h.tableRows {
		h.violate("mixed scan saw %d rows, want %d acked", got, h.tableRows)
	}
}

// checkCacheCoherence picks a random live extent range and reads it
// three ways — straight from the devices, through a (possibly cold)
// cache fill, and again warm — and demands bit-identical bytes. This is
// the tier's core safety property: the cache may change cost, never
// content.
func (h *harness) checkCacheCoherence() {
	infos := h.lake.Logs().Logs()
	// Logs() drains a map; sort so the RNG pick is deterministic.
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	nonEmpty := infos[:0]
	for _, li := range infos {
		if li.Size > 0 {
			nonEmpty = append(nonEmpty, li)
		}
	}
	if len(nonEmpty) == 0 {
		return
	}
	li := nonEmpty[h.rng.Intn(len(nonEmpty))]
	l := h.lake.Logs().Get(li.ID)
	if l == nil {
		return
	}
	n := int64(1 + h.rng.Intn(4096))
	if n > li.Size {
		n = li.Size
	}
	var off int64
	if li.Size > n {
		off = h.rng.Int63n(li.Size - n + 1)
	}
	direct, _, derr := l.ReadDirect(off, n)
	cold, _, cerr := l.Read(off, n) // fills the cache
	warm, _, werr := l.Read(off, n) // served from the cache
	h.coherence++
	if derr != nil || cerr != nil || werr != nil {
		// Reads may legitimately fail while too many copies are dead or
		// quarantined; coherence is only defined when the data is
		// reachable.
		return
	}
	if !bytes.Equal(cold, direct) {
		h.violate("cache fill diverged from device read: plog %d [%d,%d)", li.ID, off, off+n)
	}
	if !bytes.Equal(warm, direct) {
		h.violate("cached read diverged from device read: plog %d [%d,%d)", li.ID, off, off+n)
	}
}

func (h *harness) produce() {
	n := 1 + h.rng.Intn(4)
	for j := 0; j < n; j++ {
		h.eventSeq++
		key := fmt.Sprintf("k%06d", h.eventSeq)
		val := fmt.Sprintf("v%06d", h.eventSeq)
		msg, _, err := h.prod.SendCtx(topic, []byte(key), []byte(val), h.ctx())
		if err != nil {
			// Dropped past all retries, shed by an open breaker, or out
			// of deadline — all legitimate under chaos. Only an *acked*
			// write creates obligations.
			continue
		}
		h.recordAck(msg, key)
	}
}

// recordAck registers one acked produce with the loss/duplication
// bookkeeping the final drain checks against, shared by the system
// producer and the tenant producers.
func (h *harness) recordAck(msg streamlake.Message, key string) {
	h.produced++
	if h.split != nil {
		// With the metadata plane split, an ack can only have committed
		// through the majority side's leader — the minority must be
		// write-dead, whatever its stale leader believes.
		if l := h.clustered().Leader(); l >= 0 && h.split.minority[l] {
			h.violate("produce acked while the committing leader %d sits in the minority partition", l)
		}
	}
	m := h.acked[msg.Stream]
	if m == nil {
		m = map[int64]string{}
		h.acked[msg.Stream] = m
	}
	if prev, dup := m[msg.Offset]; dup {
		h.violate("stream %d offset %d acked twice (%s then %s)", msg.Stream, msg.Offset, prev, key)
	}
	m[msg.Offset] = key
}

// tenantEvent runs one multi-tenant event: a noisy burst of large
// values that blows through its bandwidth quota, a steady in-quota
// send, or a pause that lets the noisy tenant's bucket refill. Acked
// tenant writes join the same obligation maps as system writes — the
// zero-loss drain covers them too.
func (h *harness) tenantEvent() {
	switch r := h.rng.Intn(10); {
	case r < 5:
		// Noisy burst: several large values back to back. Most must be
		// throttled once the 1s bandwidth burst is spent; whatever acks
		// creates the same obligations as any other write.
		n := 2 + h.rng.Intn(3)
		for j := 0; j < n; j++ {
			h.eventSeq++
			key := fmt.Sprintf("nk%06d", h.eventSeq)
			val := bytes.Repeat([]byte{'n'}, 4096+h.rng.Intn(4096))
			msg, _, err := h.prodNoisy.SendCtx(topic, []byte(key), val, h.ctx())
			switch {
			case err == nil:
				h.noisyAcked++
				h.recordAck(msg, key)
			case errors.Is(err, tenant.ErrShed):
				h.noisyShed++
			case errors.Is(err, tenant.ErrOverQuota):
				h.noisyThrottled++
			}
		}
	case r < 9:
		// Steady tenant: small paced sends well inside its contract.
		h.eventSeq++
		key := fmt.Sprintf("sk%06d", h.eventSeq)
		msg, _, err := h.prodSteady.SendCtx(topic, []byte(key), []byte("sv"+key), h.ctx())
		switch {
		case err == nil:
			h.steadyAcked++
			h.recordAck(msg, key)
		case errors.Is(err, tenant.ErrShed), errors.Is(err, tenant.ErrOverQuota):
			h.steadyDenied++
		}
	default:
		// Idle: quota buckets refill, breaker cooldowns elapse.
		h.lake.Clock().Advance(time.Duration(1+h.rng.Intn(2000)) * time.Microsecond)
	}
}

func (h *harness) consume() {
	msgs, _, err := h.cons.PollCtx(64, h.ctx())
	if err != nil && !errors.Is(err, resil.ErrDeadlineExceeded) {
		h.violate("poll failed: %v", err)
		return
	}
	for _, m := range msgs {
		if last, ok := h.last[m.Stream]; ok && m.Offset <= last {
			h.violate("stream %d consumer offset went backwards: %d after %d", m.Stream, m.Offset, last)
		}
		h.last[m.Stream] = m.Offset
		if want, ok := h.acked[m.Stream][m.Offset]; ok && want != string(m.Key) {
			h.violate("stream %d offset %d delivered key %q, acked %q", m.Stream, m.Offset, m.Key, want)
		}
	}
	h.consumed += int64(len(msgs))
}

func (h *harness) netChurn() {
	np := h.lake.Net()
	worker := fmt.Sprintf("worker/%d", h.rng.Intn(h.cfg.Workers))
	switch h.rng.Intn(4) {
	case 0:
		np.SetDropRate("client", worker, h.cfg.DropRate*h.rng.Float64())
	case 1:
		np.SetDropRate(worker, "client", h.cfg.DropRate*h.rng.Float64())
	case 2:
		base := time.Duration(h.rng.Int63n(int64(h.cfg.MaxDelay)))
		np.SetDelay("client", worker, base, base/2)
	default:
		np.SetDropRate("client", worker, 0)
		np.SetDelay("client", worker, 0, 0)
	}
}

func (h *harness) partitionChurn() {
	np := h.lake.Net()
	if len(h.partitions) > 0 && h.rng.Intn(2) == 0 {
		p := h.partitions[0]
		h.partitions = h.partitions[1:]
		np.Heal(p[0], p[1])
		return
	}
	worker := fmt.Sprintf("worker/%d", h.rng.Intn(h.cfg.Workers))
	np.Partition("client", worker)
	h.partitions = append(h.partitions, [2]string{"client", worker})
}

func (h *harness) diskChurn() {
	inj := h.lake.Faults()
	if len(h.kills) > 0 && (len(h.kills) >= 2 || h.rng.Intn(2) == 0) {
		var disk int
		fmt.Sscanf(h.kills[0], "ssd/%d", &disk)
		h.kills = h.kills[1:]
		inj.ReviveDisk("ssd", disk)
		return
	}
	if disk, err := inj.KillRandomDisk("ssd"); err == nil {
		h.kills = append(h.kills, fmt.Sprintf("ssd/%d", disk))
		h.killCount++
	}
}

// settle heals every fault and restores full redundancy so the final
// drain measures what survived, not what is currently unreachable.
func (h *harness) settle() {
	np := h.lake.Net()
	// Revive dead nodes before the blanket heal: ReviveNode restores
	// their worker links itself, and the detector needs their heartbeats
	// flowing again before membership can converge.
	if cl := h.clustered(); cl != nil {
		for _, node := range h.nodeKills {
			cl.ReviveNode(node)
		}
		h.nodeKills = nil
		h.split = nil // HealAll below removes its links
	}
	np.HealAll()
	np.Clear()
	for _, k := range h.kills {
		var disk int
		fmt.Sscanf(k, "ssd/%d", &disk)
		h.lake.Faults().ReviveDisk("ssd", disk)
	}
	h.kills = nil
	h.lake.Clock().Advance(50 * time.Millisecond) // breaker cooldowns elapse
	if cl := h.clustered(); cl != nil {
		// Converge membership: tick until every node's revival commits
		// and a leader stands, then re-replicate the dead interval's
		// stale copies inside a bounded virtual-time budget.
		for i := 0; i < 512; i++ {
			v := cl.CurrentView()
			all := cl.Leader() >= 0
			for n := 0; n < cl.Nodes(); n++ {
				// Tombstoned nodes never come back; their Alive=false is
				// the converged state, not a pending revival.
				if !v.Alive[n] && !v.Removed[n] {
					all = false
				}
			}
			if all {
				break
			}
			h.lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
		if h.cfg.Elastic {
			h.settleMembership(cl)
		}
		h.reb = cl.RunRebalance(2 * time.Second)
		if !h.reb.Complete {
			h.violate("rebalance left %d degraded logs (%d stale bytes) after its budget",
				h.reb.RemainingLogs, h.reb.RemainingStale)
		}
	}
	h.lake.RepairUntilRedundant(16)
	if h.cfg.Corruption {
		h.lake.RunScrub()
	}
}

// settleMembership finishes every membership change the fault schedule
// interrupted: limbo learners whose join entry never committed, and
// drained nodes whose tombstone didn't. Both proposals are resumable —
// ProposeJoin retries the catch-up and promotion for an existing
// learner, ProposeRemove skips straight to the tombstone once the leave
// is committed — so with faults healed they converge in a few ticks.
// A change still pending after the budget is an invariant failure: the
// protocol promised every proposed change eventually commits or aborts
// cleanly.
func (h *harness) settleMembership(cl *cluster.Cluster) {
	for i := 0; i < 128; i++ {
		v := cl.CurrentView()
		pending := -1
		leaving := false
		for n := 0; n < cl.Nodes(); n++ {
			if v.Joining[n] || v.Leaving[n] {
				pending, leaving = n, v.Leaving[n]
				break
			}
		}
		if pending < 0 {
			return
		}
		var err error
		if leaving {
			err = cl.ProposeRemove(pending)
		} else if err = cl.ProposeJoin(pending); err == nil {
			rep := cl.LastJoin()
			if rep.MovedBytes > rep.BoundBytes {
				h.violate("join of node %d scheduled %d bytes to move, bound %d",
					rep.Node, rep.MovedBytes, rep.BoundBytes)
			}
		}
		if err != nil {
			h.lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
	}
	v := cl.CurrentView()
	for n := 0; n < cl.Nodes(); n++ {
		if v.Joining[n] {
			h.violate("settle could not commit the join of node %d", n)
		}
		if v.Leaving[n] {
			h.violate("settle could not commit the removal of node %d", n)
		}
	}
}

// readSweep re-reads the topic end to end several times through a
// dedicated consumer — a read-heavy tail-latency probe over whatever
// slices the run persisted.
func (h *harness) readSweep(passes int) {
	c := h.lake.Consumer("chaos-sweeper")
	if err := c.Subscribe(topic); err != nil {
		h.violate("sweeper subscribe: %v", err)
		return
	}
	for pass := 0; pass < passes; pass++ {
		for s := 0; s < h.cfg.Streams; s++ {
			c.Seek(topic, s, 0)
		}
		for {
			msgs, _, err := c.Poll(64)
			if err != nil {
				h.violate("sweeper poll: %v", err)
				return
			}
			if len(msgs) == 0 {
				break
			}
		}
	}
}

// drainAndCheck reads every stream back from offset zero under a fresh
// consumer group and checks the loss and duplication invariants.
func (h *harness) drainAndCheck() {
	c := h.lake.Consumer("chaos-verifier")
	if err := c.Subscribe(topic); err != nil {
		h.violate("verifier subscribe: %v", err)
		return
	}
	seen := map[int]map[int64]string{}
	for empty := 0; empty < 2; {
		msgs, _, err := c.Poll(256)
		if err != nil {
			h.violate("verifier poll: %v", err)
			return
		}
		if len(msgs) == 0 {
			empty++
			continue
		}
		empty = 0
		h.drained += int64(len(msgs))
		for _, m := range msgs {
			sm := seen[m.Stream]
			if sm == nil {
				sm = map[int64]string{}
				seen[m.Stream] = sm
			}
			if _, dup := sm[m.Offset]; dup {
				h.violate("drain: stream %d offset %d delivered twice", m.Stream, m.Offset)
			}
			sm[m.Offset] = string(m.Key)
		}
	}
	// Zero acked-write loss, no duplicate appends: every acked offset is
	// present exactly once with the payload that was acked.
	for stream, offsets := range h.acked {
		for off, key := range offsets {
			got, ok := seen[stream][off]
			if !ok {
				h.violate("acked write lost: stream %d offset %d (%s)", stream, off, key)
			} else if got != key {
				h.violate("acked write mangled: stream %d offset %d has %q, want %q", stream, off, got, key)
			}
		}
	}
}

// clusterCheck enforces the cluster-plane invariants after the drain:
// every acked produce is in the applied metadata log, no term elected
// two leaders, and every node's committed log agrees with every other's
// on their common prefix — and Log Matching holds over the full logs,
// uncommitted tails included.
func (h *harness) clusterCheck() {
	cl := h.clustered()
	if cl == nil {
		return
	}
	for stream, offs := range h.acked {
		for off := range offs {
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
	n := cl.Nodes()
	logs := make([][]cluster.Entry, n)
	for i := 0; i < n; i++ {
		logs[i] = cl.CommittedLog(i)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			m := len(logs[a])
			if len(logs[b]) < m {
				m = len(logs[b])
			}
			for i := 0; i < m; i++ {
				if logs[a][i] != logs[b][i] {
					h.violate("committed logs diverge at index %d between nodes %d and %d", i, a, b)
				}
			}
		}
	}
}

// report snapshots counters and computes the run digest.
func (h *harness) report() Report {
	snap := h.lake.Obs().Snapshot()
	hs := h.lake.HedgeStats()
	ns := h.lake.Net().Stats()
	r := Report{
		Events:     h.cfg.Events,
		Produced:   h.produced,
		Consumed:   h.consumed,
		Drained:    h.drained,
		Retries:    snap.Counters["streamsvc_retries_total"],
		NetDrops:   ns.Drops + ns.Blocked,
		Sheds:      snap.Counters["streamsvc_breaker_sheds_total"],
		Trips:      snap.Counters["streamsvc_breaker_trips_total"],
		Deadlines:  snap.Counters["streamsvc_deadline_exceeded_total"],
		Hedged:     hs.Hedged,
		HedgeWins:  hs.Wins,
		DiskKills:  h.killCount,
		Corrupted:  h.corrupted,
		TableRows:  h.tableRows,
		Coherence:  h.coherence,
		ReadP99:    snap.Histograms["plog_read_seconds"].Quantile(0.99),
		Violations: h.violations,
	}
	if c := h.lake.Cache(); c != nil {
		cs := c.Stats()
		r.CacheHits = cs.DRAMHits + cs.SCMHits
	}
	if h.cfg.GroupCommit {
		r.GroupCommits = h.lake.GroupCommitStats().Commits
	}
	if h.cfg.Mixed {
		cs := h.lake.Logs().CompressionStats()
		r.ColdLogs = cs.CompressedLogs
		r.ColdRawB = cs.RawBytes
		r.ColdCompB = cs.CompressedBytes
		if cs.CompressedBytes > cs.RawBytes {
			// The incompressible bailout guarantees stored bytes never
			// exceed raw bytes — negotiation keeps an extent raw rather
			// than let a codec inflate it.
			h.violate("compression inflated cold storage: %d compressed > %d raw",
				cs.CompressedBytes, cs.RawBytes)
			r.Violations = h.violations
		}
	}
	if h.cfg.NoisyNeighbor {
		r.NoisyAcked = h.noisyAcked
		r.NoisyLimited = h.noisyThrottled
		r.NoisyShed = h.noisyShed
		r.SteadyAcked = h.steadyAcked
		r.SteadyDenied = h.steadyDenied
	}
	if cl := h.clustered(); cl != nil {
		cs := cl.Stats()
		r.NodeKills = h.nodeKillCount
		r.Elections = cs.Elections
		r.MetaCommits = cs.Commits
		r.RebalancedB = h.reb.RepairedBytes
		r.RebalanceOK = h.reb.Complete
		if h.cfg.Elastic {
			r.Joins = int(cs.Joins)
			r.Removes = int(cs.Removes)
			r.JoinMovedB = cs.JoinMovedBytes
			r.EvacuatedB = cs.EvacuatedBytes
		}
	}
	r.Digest = h.digest(r)
	return r
}

// digest folds the run's observable outcome — acked set, consumed
// count, resilience counters — into one FNV-1a value. Two runs of the
// same config must produce the same digest: the bit-identical-replay
// invariant.
func (h *harness) digest(r Report) uint64 {
	d := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(d, format, args...) }
	w("produced=%d consumed=%d drained=%d retries=%d drops=%d sheds=%d trips=%d deadlines=%d hedged=%d p99=%d;",
		r.Produced, r.Consumed, r.Drained, r.Retries, r.NetDrops, r.Sheds, r.Trips, r.Deadlines, r.Hedged, r.ReadP99)
	if h.cfg.Mixed {
		w("tableRows=%d coherence=%d;", r.TableRows, r.Coherence)
	}
	if h.cfg.CacheMB > 0 {
		w("cacheHits=%d;", r.CacheHits)
	}
	if h.cfg.GroupCommit {
		w("groupCommits=%d;", r.GroupCommits)
	}
	if h.cfg.Mixed {
		w("coldLogs=%d coldRaw=%d coldComp=%d;", r.ColdLogs, r.ColdRawB, r.ColdCompB)
	}
	if h.cfg.NoisyNeighbor {
		w("noisyAcked=%d noisyLimited=%d noisyShed=%d steadyAcked=%d steadyDenied=%d;",
			r.NoisyAcked, r.NoisyLimited, r.NoisyShed, r.SteadyAcked, r.SteadyDenied)
	}
	if h.cfg.Nodes > 1 {
		w("nodeKills=%d elections=%d metaCommits=%d rebalanced=%d;",
			r.NodeKills, r.Elections, r.MetaCommits, r.RebalancedB)
	}
	if h.cfg.Elastic {
		w("joins=%d removes=%d joinMoved=%d evacuated=%d;",
			r.Joins, r.Removes, r.JoinMovedB, r.EvacuatedB)
	}
	streams := make([]int, 0, len(h.acked))
	for s := range h.acked {
		streams = append(streams, s)
	}
	sort.Ints(streams)
	for _, s := range streams {
		offs := make([]int64, 0, len(h.acked[s]))
		for off := range h.acked[s] {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		w("stream=%d;", s)
		for _, off := range offs {
			w("%d=%s;", off, h.acked[s][off])
		}
	}
	for _, v := range h.violations {
		w("violation=%s;", v)
	}
	return d.Sum64()
}
