// Command lakectl is an interactive shell over a StreamLake instance:
// create topics and tables, produce and consume messages, run SQL, force
// conversions and compactions, and inspect storage stats — a quick way
// to poke at the system end to end.
//
// Usage:
//
//	lakectl                 # interactive shell
//	lakectl -c "command"    # run one command and exit
//
// Commands:
//
//	create-topic <name> <streams>
//	produce <topic> <key> <value>
//	consume <topic> [group]
//	create-table <name> <partitionCol> <field:type> [field:type...]
//	insert <table> <value> [value...]         (values align with schema)
//	sql <select statement>
//	convert <topic>
//	compact <table> <partition>
//	snapshot <table>
//	stats [obs]                       (obs: dump the metrics registry;
//	                                   cold-tier compression counters show
//	                                   once tiering demotes a log to HDD)
//	trace produce <topic> <key> <value>  (traced send, prints the span tree)
//	trace poll <topic> [group] [max]     (traced poll)
//	trace sql <select statement>         (traced query: plan, scan, file reads)
//	trace flush <table> [value...]       (inserts the row, if given, into the
//	                                     write cache, then traces the
//	                                     MetaFresher flush: commit, metadata writes)
//	trace compact <table> <partition>    (traced compaction: bin merges, commit)
//	trace convert <topic>                (traced forced conversion: slice reads,
//	                                     partition files, commit, reclaim)
//	trace last | trace <id>
//	faults status
//	faults net [status]               (standing link faults + breaker states)
//	faults net drop <from> <to> <rate>
//	faults net delay <from> <to> <base> [jitter]
//	faults net partition <from> <to>  (directed; endpoints like client, worker/0)
//	faults net heal <from> <to> | heal-all | clear
//	faults kill <pool> <disk>         (pool: ssd|hdd)
//	faults kill-random <pool>
//	faults revive <pool> <disk>
//	faults write-error <rate>         (probability in [0,1])
//	faults read-error <rate>
//	faults slow <pool> <disk> <extra> (e.g. 5ms; 0 clears)
//	faults corrupt <pool>             (silently corrupt one random copy)
//	faults bit-flip <pool> <rate>     (per-byte silent corruption rate; 0 clears)
//	faults clear
//	advance <duration>                (advance virtual time, e.g. 30ms —
//	                                   lets breaker cooldowns and failure
//	                                   windows elapse)
//	repair [rounds]
//	scrub [run|cycle|status]
//	cache [status|flush]              (two-tier read cache; -cache sizes it)
//	tiering run                       (one tiering pass: quiescent logs
//	                                   demote by policy, and demotion to
//	                                   HDD compresses extents)
//	chaos run [seed [events]]         (one seeded chaos drill, fresh lake)
//	chaos replay [seed [events]]      (run twice, assert bit-identical digests)
//	chaos status                      (report of the shell's last drill)
//	cluster status                    (per-node membership, roles, backlog; -nodes N sizes it)
//	cluster kill <node> | revive <node>
//	cluster drain <node> | undrain <node>
//	cluster join <node> | remove <node>   (runtime grow/shrink via the metadata log)
//	cluster tick [n]                  (n heartbeat rounds of virtual time)
//	cluster rebalance [budget]        (re-replicate off dead nodes, e.g. 2s)
//	tenant status                     (per-tenant quotas + admission counters)
//	tenant set <name> [weight=N] [priority=N] [capacity=BYTES] [iops=N] [bw=BPS]
//	                                  (the first tenant set turns metering on)
//	tenant produce <tenant> <topic> <key> <value>  (send under a tenant identity)
//	help
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"streamlake"
	"streamlake/internal/chaos"
	"streamlake/internal/lakebrain/compact"
	"streamlake/internal/obs"
)

func main() {
	sh, oneShot, err := open(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if oneShot != "" {
		if err := sh.exec(oneShot); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Println("streamlake shell — 'help' for commands, 'exit' to quit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("lake> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// open parses the command-line flags, opens the lake they describe and
// returns a shell over it printing to out, plus the -c command.
func open(args []string, out io.Writer) (*shell, string, error) {
	fs := flag.NewFlagSet("lakectl", flag.ExitOnError)
	oneShot := fs.String("c", "", "run one command and exit")
	cacheMB := fs.Int("cache", 64, "read cache size in MB (0 disables)")
	groupCommit := fs.Int("group-commit", 0, "coalesce up to this many slice flushes per device commit (0/1: one commit per slice)")
	zoneMaps := fs.Bool("zonemaps", false, "record zone maps + bloom filters at insert time for scan pruning")
	nodes := fs.Int("nodes", 0, "cluster size (0 is the same one-node lake as 1)")
	fs.Parse(args)

	lake, err := streamlake.Open(streamlake.Config{
		CacheMB:           *cacheMB,
		GroupCommitSlices: *groupCommit,
		ZoneMaps:          *zoneMaps,
		Nodes:             *nodes,
	})
	if err != nil {
		return nil, "", err
	}
	return &shell{lake: lake, out: out}, *oneShot, nil
}

type shell struct {
	lake        *streamlake.Lake
	out         io.Writer
	prod        *streamlake.Producer
	tenantProds map[string]*streamlake.Producer
	consumers   map[string]*streamlake.Consumer
	lastChaos   *chaos.Report
}

// producer returns the shell's long-lived producer. A fresh handle per
// produce command would restart the idempotence sequence at 1, so every
// message after the first would be deduplicated as a retransmit.
func (s *shell) producer() *streamlake.Producer {
	if s.prod == nil {
		s.prod = s.lake.Producer("lakectl")
	}
	return s.prod
}

// consumer returns the shell's long-lived consumer of topic in group,
// re-subscribed so it resumes from the group's committed offsets as a
// fresh handle would, and keeps the slice its last poll stopped inside.
func (s *shell) consumer(topic, group string) (*streamlake.Consumer, error) {
	key := group + "/" + topic
	if s.consumers[key] == nil {
		if s.consumers == nil {
			s.consumers = map[string]*streamlake.Consumer{}
		}
		s.consumers[key] = s.lake.Consumer(group)
	}
	return s.consumers[key], s.consumers[key].Subscribe(topic)
}

// arg returns rest[i], or def when the command stops short of it.
func arg(rest []string, i int, def string) string {
	if i < len(rest) {
		return rest[i]
	}
	return def
}

// intArg is arg for an integer argument.
func intArg(rest []string, i, def int) (int, error) {
	return strconv.Atoi(arg(rest, i, strconv.Itoa(def)))
}

// usages lists each command's arguments: a line with fewer than n of them
// is refused with the list.
var usages = map[string]struct {
	n    int
	args string
}{
	"create-topic":  {2, "<name> <streams>"},
	"produce":       {3, "<topic> <key> <value>"},
	"consume":       {1, "<topic> [group]"},
	"create-table":  {3, "<name> <partitionCol|-> <field:type>..."},
	"insert":        {2, "<table> <value>..."},
	"convert":       {1, "<topic>"},
	"compact":       {2, "<table> <partition>"},
	"snapshot":      {1, "<table>"},
	"advance":       {1, "<duration> (e.g. 30ms)"},
	"trace produce": {3, "<topic> <key> <value>"},
	"trace poll":    {1, "<topic> [group] [max]"},
	"trace sql":     {1, "<statement>"},
	"trace flush":   {1, "<table> [value...]"},
	"trace compact": {2, "<table> <partition>"},
	"trace convert": {1, "<topic>"},
}

func (s *shell) exec(line string) error {
	args := strings.Fields(line)
	cmd, rest := args[0], args[1:]
	key, given := cmd, len(rest)
	if cmd == "trace" && given > 0 {
		key, given = "trace "+rest[0], given-1
	}
	if u, ok := usages[key]; ok && given < u.n {
		return fmt.Errorf("usage: %s %s", key, u.args)
	}
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, "commands: create-topic produce consume create-table insert sql convert compact snapshot stats faults repair scrub chaos")
		fmt.Fprintln(s.out, "faults:   status | kill <pool> <disk> | kill-random <pool> | revive <pool> <disk> |")
		fmt.Fprintln(s.out, "          write-error <rate> | read-error <rate> | slow <pool> <disk> <extra> |")
		fmt.Fprintln(s.out, "          corrupt <pool> | bit-flip <pool> <rate> | clear")
		fmt.Fprintln(s.out, "net:      faults net [status] | drop <from> <to> <rate> | delay <from> <to> <base> [jitter] |")
		fmt.Fprintln(s.out, "          partition <from> <to> | heal <from> <to> | heal-all | clear")
		fmt.Fprintln(s.out, "scrub:    run (one pass) | cycle (sweep every log) | status")
		fmt.Fprintln(s.out, "cache:    status | flush (two-tier read cache)")
		fmt.Fprintln(s.out, "tiering:  run (one tiering pass; demotion to HDD compresses extents)")
		fmt.Fprintln(s.out, "chaos:    run [seed [events]] | replay [seed [events]] | status")
		fmt.Fprintln(s.out, "cluster:  status | kill <node> | revive <node> | drain <node> | undrain <node> |")
		fmt.Fprintln(s.out, "          join <node> | remove <node> |")
		fmt.Fprintln(s.out, "          tick [n] | rebalance [budget]   (-nodes N sizes the cluster)")
		fmt.Fprintln(s.out, "tenant:   status | set <name> [weight=N] [priority=N] [capacity=BYTES] [iops=N] [bw=BPS] |")
		fmt.Fprintln(s.out, "          produce <tenant> <topic> <key> <value>   (the first set turns metering on)")
		fmt.Fprintln(s.out, "advance:  advance <duration> (virtual time, e.g. 30ms)")
		return nil
	case "create-topic":
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return err
		}
		if err := s.lake.CreateTopic(streamlake.TopicConfig{Name: rest[0], StreamNum: n}); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "topic %s created with %d streams\n", rest[0], n)
		return nil
	case "produce":
		msg, cost, err := s.producer().Send(rest[0], []byte(rest[1]), []byte(strings.Join(rest[2:], " ")))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "offset=%d stream=%d latency=%v\n", msg.Offset, msg.Stream, cost)
		return nil
	case "consume":
		c, err := s.consumer(rest[0], arg(rest, 1, "lakectl"))
		if err != nil {
			return err
		}
		msgs, _, err := c.Poll(32)
		if err != nil {
			return err
		}
		for _, m := range msgs {
			fmt.Fprintf(s.out, "  %d: %s = %s\n", m.Offset, m.Key, m.Value)
		}
		fmt.Fprintf(s.out, "%d message(s)\n", len(msgs))
		_, err = c.CommitOffsets()
		return err
	case "create-table":
		schema, err := streamlake.NewSchema(rest[2:]...)
		if err != nil {
			return err
		}
		partCol := rest[1]
		if partCol == "-" {
			partCol = ""
		}
		if err := s.lake.CreateTable(streamlake.TableMeta{
			Name: rest[0], Path: "/lake/" + rest[0], Schema: schema, PartitionColumn: partCol,
		}); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "table %s created\n", rest[0])
		return nil
	case "insert":
		if err := s.insert(rest[0], rest[1:]); err != nil {
			return err
		}
		if err := s.lake.FlushTable(rest[0]); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "1 row inserted")
		return nil
	case "sql", "select", "Select", "SELECT":
		sql := line
		if cmd == "sql" {
			sql = strings.TrimSpace(strings.TrimPrefix(line, "sql"))
		}
		res, cost, err := s.lake.QueryCost(sql)
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			fmt.Fprintln(s.out, strings.Join(row, "\t"))
		}
		fmt.Fprintf(s.out, "%d row(s), %v\n", len(res.Rows), cost)
		return nil
	case "convert":
		res, cost, err := s.lake.ConvertNow(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "converted %d messages into %d files (%v)\n", res.Messages, res.Files, cost)
		return nil
	case "compact":
		merged, err := s.lake.CompactTable(rest[0], rest[1], 64<<20)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "merged %d files\n", merged)
		return nil
	case "snapshot":
		snap, err := s.lake.TableSnapshot(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "snapshot %d: %d files, %d rows, %d commits\n",
			snap.ID, len(snap.Files), snap.RowCount, len(snap.CommitIDs))
		return nil
	case "stats":
		if len(rest) > 0 && rest[0] == "obs" {
			return s.lake.Obs().WriteProm(s.out)
		}
		st := s.lake.Stats()
		fmt.Fprintf(s.out, "topics=%d streamObjects=%d tableFiles=%d logical=%dB physical=%dB util=%.1f%% degradedLogs=%d staleBytes=%dB\n",
			st.Topics, st.StreamObjects, st.TableFiles, st.LogicalBytes, st.PhysicalBytes,
			st.PoolUtilization*100, st.DegradedLogs, st.StaleBytes)
		if gc := s.lake.GroupCommitStats(); gc.Commits > 0 {
			fmt.Fprintf(s.out, "groupCommits=%d payloads=%d savedDeviceWrites=%d\n",
				gc.Commits, gc.Payloads, gc.SavedDeviceWrites)
		}
		if cs := s.lake.Logs().CompressionStats(); cs.CompressedLogs > 0 {
			fmt.Fprintf(s.out, "compressedLogs=%d raw=%dB stored=%dB (%.2fx) extents flate=%d rle=%d raw=%d\n",
				cs.CompressedLogs, cs.RawBytes, cs.CompressedBytes,
				float64(cs.CompressedBytes)/float64(cs.RawBytes),
				cs.FlateExtents, cs.RLEExtents, cs.NoneExtents)
		}
		return nil
	case "trace":
		return s.trace(rest)
	case "faults":
		return s.faults(rest)
	case "repair":
		rounds, err := intArg(rest, 0, 1)
		if err != nil {
			return err
		}
		rep, ok := s.lake.RepairUntilRedundant(rounds)
		fmt.Fprintf(s.out, "repaired %d/%d log(s), %dB restored, %d attempt(s), cost=%v backoff=%v fullyRedundant=%v\n",
			rep.LogsRepaired, rep.LogsScanned, rep.RepairedBytes, rep.Attempts, rep.Cost, rep.Backoff, ok)
		return nil
	case "scrub":
		return s.scrub(rest)
	case "cache":
		return s.cache(rest)
	case "tiering":
		if len(rest) == 0 || rest[0] != "run" {
			return fmt.Errorf("usage: tiering run")
		}
		migs, cost := s.lake.RunTiering()
		for _, m := range migs {
			fmt.Fprintf(s.out, "%s: %s -> %s (%dB)\n", m.ID, m.From, m.To, m.Size)
		}
		fmt.Fprintf(s.out, "%d migrations, cost=%v\n", len(migs), cost)
		return nil
	case "chaos":
		return s.chaos(rest)
	case "cluster":
		return s.cluster(rest)
	case "tenant":
		return s.tenant(rest)
	case "advance":
		// The shell's requests are instantaneous in virtual time, so
		// nothing else moves the clock: without this, a tripped breaker's
		// cooldown or failure window would never elapse.
		d, err := time.ParseDuration(rest[0])
		if err != nil {
			return err
		}
		if d <= 0 {
			return fmt.Errorf("duration must be positive, got %v", d)
		}
		s.lake.Clock().Advance(d)
		fmt.Fprintf(s.out, "virtual time advanced by %v to %v\n", d, s.lake.Clock().Now())
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (s *shell) faults(rest []string) error {
	if len(rest) == 0 {
		rest = []string{"status"}
	}
	inj := s.lake.Faults()
	sub := rest[0]
	args := rest[1:]
	poolDisk := func() (string, int, error) {
		if len(args) < 2 {
			return "", 0, fmt.Errorf("usage: faults %s <pool> <disk>", sub)
		}
		d, err := strconv.Atoi(args[1])
		return args[0], d, err
	}
	switch sub {
	case "net":
		return s.netFaults(args)
	case "status":
		st := inj.Stats()
		fmt.Fprintf(s.out, "killed=%v writeErrors=%d readErrors=%d kills=%d revives=%d extraLatency=%v\n",
			inj.KilledDisks(), st.InjectedWriteErrors, st.InjectedReadErrors, st.Kills, st.Revives, st.InjectedLatency)
		lst := s.lake.Stats()
		fmt.Fprintf(s.out, "degradedLogs=%d staleBytes=%dB\n", lst.DegradedLogs, lst.StaleBytes)
		return nil
	case "kill", "revive":
		p, d, err := poolDisk()
		done := "killed"
		if err == nil && sub == "kill" {
			err = inj.KillDisk(p, d)
		} else if err == nil {
			err, done = inj.ReviveDisk(p, d), "revived"
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "disk %s/%d %s\n", p, d, done)
		return nil
	case "kill-random":
		if len(args) < 1 {
			return fmt.Errorf("usage: faults kill-random <pool>")
		}
		d, err := inj.KillRandomDisk(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "disk %s/%d killed\n", args[0], d)
		return nil
	case "write-error", "read-error":
		if len(args) < 1 {
			return fmt.Errorf("usage: faults %s <rate>", sub)
		}
		rate, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return err
		}
		if rate < 0 || rate > 1 {
			return fmt.Errorf("rate %v outside [0,1]", rate)
		}
		if sub == "write-error" {
			inj.SetWriteErrorRate(rate)
		} else {
			inj.SetReadErrorRate(rate)
		}
		fmt.Fprintf(s.out, "%s rate set to %.3f\n", sub, rate)
		return nil
	case "slow":
		if len(args) < 3 {
			return fmt.Errorf("usage: faults slow <pool> <disk> <extra>")
		}
		d, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		extra, err := time.ParseDuration(args[2])
		if err != nil {
			return err
		}
		if extra < 0 {
			return fmt.Errorf("negative latency %v (0 clears)", extra)
		}
		if err := inj.DegradeDisk(args[0], d, extra); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "disk %s/%d degraded by %v per op\n", args[0], d, extra)
		return nil
	case "corrupt":
		if len(args) < 1 {
			return fmt.Errorf("usage: faults corrupt <pool>")
		}
		ev, err := inj.CorruptRandom(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "silently corrupted %v\n", ev)
		return nil
	case "bit-flip":
		if len(args) < 2 {
			return fmt.Errorf("usage: faults bit-flip <pool> <rate>")
		}
		rate, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return err
		}
		if rate < 0 {
			return fmt.Errorf("negative rate %v (0 clears)", rate)
		}
		if err := inj.SetBitFlipRate(args[0], rate); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "pool %s bit-flip rate set to %g per byte written\n", args[0], rate)
		return nil
	case "clear":
		inj.Clear()
		fmt.Fprintln(s.out, "all standing faults cleared")
		return nil
	default:
		return fmt.Errorf("unknown faults subcommand %q (try help)", sub)
	}
}

// netFaults drives the network fault plane: standing drop, delay, and
// partition rules on directed links, plus the produce path's circuit
// breaker states.
func (s *shell) netFaults(args []string) error {
	np := s.lake.Net()
	sub := "status"
	if len(args) > 0 {
		sub = args[0]
		args = args[1:]
	}
	fromTo := func() (string, string, error) {
		if len(args) < 2 {
			return "", "", fmt.Errorf("usage: faults net %s <from> <to> ... (endpoints like client, worker/0, or *)", sub)
		}
		return args[0], args[1], nil
	}
	switch sub {
	case "status":
		st := np.Stats()
		fmt.Fprintf(s.out, "drops=%d blocked=%d delayed=%d delayInjected=%v\n",
			st.Drops, st.Blocked, st.Delayed, st.DelayInjected)
		rules := np.Rules()
		if len(rules) == 0 {
			fmt.Fprintln(s.out, "no standing network faults")
		}
		for _, r := range rules {
			fmt.Fprintln(s.out, "  "+r)
		}
		for _, eb := range s.lake.Service().BreakerStates() {
			fmt.Fprintf(s.out, "breaker %s: %s trips=%d sheds=%d probes=%d\n",
				eb.Endpoint, eb.State, eb.Stats.Trips, eb.Stats.Sheds, eb.Stats.Probes)
		}
		return nil
	case "drop":
		from, to, err := fromTo()
		if err != nil {
			return err
		}
		if len(args) < 3 {
			return fmt.Errorf("usage: faults net drop <from> <to> <rate>")
		}
		rate, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return err
		}
		if rate < 0 || rate > 1 {
			return fmt.Errorf("rate %v outside [0,1] (0 clears)", rate)
		}
		np.SetDropRate(from, to, rate)
		fmt.Fprintf(s.out, "drop %s->%s set to %.3f\n", from, to, rate)
		return nil
	case "delay":
		from, to, err := fromTo()
		if err != nil {
			return err
		}
		if len(args) < 3 {
			return fmt.Errorf("usage: faults net delay <from> <to> <base> [jitter]")
		}
		base, err := time.ParseDuration(args[2])
		if err != nil {
			return err
		}
		var jitter time.Duration
		if len(args) > 3 {
			if jitter, err = time.ParseDuration(args[3]); err != nil {
				return err
			}
		}
		np.SetDelay(from, to, base, jitter)
		fmt.Fprintf(s.out, "delay %s->%s set to %v+%v\n", from, to, base, jitter)
		return nil
	case "partition", "heal":
		from, to, err := fromTo()
		if err != nil {
			return err
		}
		done := "partitioned"
		if sub == "heal" {
			np.Heal(from, to)
			done = "healed"
		} else {
			np.Partition(from, to)
		}
		fmt.Fprintf(s.out, "%s %s->%s\n", done, from, to)
		return nil
	case "heal-all":
		np.HealAll()
		fmt.Fprintln(s.out, "all partitions healed (drop and delay rules stay)")
		return nil
	case "clear":
		np.Clear()
		fmt.Fprintln(s.out, "all standing network faults cleared")
		return nil
	default:
		return fmt.Errorf("unknown faults net subcommand %q (status|drop|delay|partition|heal|heal-all|clear)", sub)
	}
}

// chaos runs a seeded chaos drill against a fresh lake (the shell's
// instance is untouched) and prints its invariant report.
func (s *shell) chaos(rest []string) error {
	sub := "run"
	if len(rest) > 0 {
		sub = rest[0]
		rest = rest[1:]
	}
	switch sub {
	case "run", "replay":
		cfg := chaos.Config{Seed: 1}
		if len(rest) > 0 {
			seed, err := strconv.ParseUint(rest[0], 10, 64)
			if err != nil {
				return fmt.Errorf("seed: %w", err)
			}
			cfg.Seed = seed
		}
		if len(rest) > 1 {
			events, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("events: %w", err)
			}
			cfg.Events = events
		}
		var rep chaos.Report
		var err error
		if sub == "replay" {
			var same bool
			rep, same, err = chaos.RunWithReplay(cfg)
			if err == nil {
				fmt.Fprintf(s.out, "replay bit-identical: %v\n", same)
			}
		} else {
			rep, err = chaos.Run(cfg)
		}
		if err != nil {
			return err
		}
		s.lastChaos = &rep
		s.printChaos(&rep)
		return nil
	case "status":
		if s.lastChaos == nil {
			return fmt.Errorf("no chaos drill run yet (try: chaos run [seed [events]])")
		}
		s.printChaos(s.lastChaos)
		return nil
	default:
		return fmt.Errorf("unknown chaos subcommand %q (run|replay|status)", sub)
	}
}

// cluster drives the membership plane: status, kill/revive, drain,
// heartbeat ticks, and bounded re-replication. The lake has -nodes
// members, one by default.
func (s *shell) cluster(rest []string) error {
	cl := s.lake.Cluster()
	sub := "status"
	if len(rest) > 0 {
		sub = rest[0]
		rest = rest[1:]
	}
	nodeArg := func() (int, error) {
		if len(rest) < 1 {
			return 0, fmt.Errorf("usage: cluster %s <node>", sub)
		}
		return strconv.Atoi(rest[0])
	}
	// The node commands that print one line once they succeed.
	if op, ok := map[string]struct {
		do   func(int) error
		done string
	}{
		"remove":  {cl.ProposeRemove, "removed: slices evacuated, tombstone committed (id is never reused)"},
		"kill":    {cl.KillNode, "killed (advance time or 'cluster tick' to let detection commit)"},
		"revive":  {cl.ReviveNode, "revived"},
		"drain":   {cl.DrainNode, "draining: placement excludes it, data stays readable"},
		"undrain": {cl.UndrainNode, "back in placement"},
	}[sub]; ok {
		id, err := nodeArg()
		if err == nil {
			err = op.do(id)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "node %d %s\n", id, op.done)
		return nil
	}
	switch sub {
	case "status":
		st := cl.Status()
		fmt.Fprintf(s.out, "leader=%d term=%d applied=%d elections=%d commits=%d commitFails=%d\n",
			st.Leader, st.Term, st.Applied, st.Stats.Elections, st.Stats.Commits, st.Stats.CommitFails)
		fmt.Fprintf(s.out, "heartbeats sent=%d lost=%d kills=%d revives=%d staleMarked=%dB\n",
			st.Stats.HeartbeatsSent, st.Stats.HeartbeatsLost, st.Stats.NodesKilled,
			st.Stats.NodesRevived, st.Stats.StaleMarkedByte)
		if st.Stats.Joins > 0 || st.Stats.Removes > 0 {
			fmt.Fprintf(s.out, "membership: joins=%d removes=%d joinMoved=%dB evacuated=%dB\n",
				st.Stats.Joins, st.Stats.Removes, st.Stats.JoinMovedBytes, st.Stats.EvacuatedBytes)
		}
		for _, n := range st.Nodes {
			state := "alive"
			switch {
			case n.Removed:
				state = "removed"
			case n.Joining:
				state = "joining"
			case n.Leaving:
				state = "leaving"
			case !n.Up:
				state = "down"
			case !n.Alive:
				state = "dead"
			case n.Suspect:
				state = "suspect"
			}
			drain := ""
			if n.Draining && !n.Leaving {
				drain = " draining"
			}
			fmt.Fprintf(s.out, "  node %d: %-7s %-9s term=%d log=%d/%d slices=%d backlog=%dB%s\n",
				n.ID, state, n.Role, n.Term, n.Commit, n.LogLen, n.SlicesOwned, n.BacklogBytes, drain)
		}
		return nil
	case "join":
		id, err := nodeArg()
		if err != nil {
			return err
		}
		if err := cl.ProposeJoin(id); err != nil {
			return err
		}
		rep := cl.LastJoin()
		fmt.Fprintf(s.out, "node %d joined: %d slice(s) relocating, %dB of re-replication scheduled (bound %dB, %d deferred)\n",
			rep.Node, rep.MovedSlices, rep.MovedBytes, rep.BoundBytes, rep.Skipped)
		return nil
	case "tick":
		rounds, err := intArg(rest, 0, 1)
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			s.lake.Clock().Advance(time.Millisecond)
			cl.Tick()
		}
		v := cl.CurrentView()
		fmt.Fprintf(s.out, "ticked %d round(s): leader=%d term=%d now=%v\n", rounds, v.Leader, v.Term, s.lake.Clock().Now())
		return nil
	case "rebalance":
		budget := 2 * time.Second
		if len(rest) > 0 {
			d, err := time.ParseDuration(rest[0])
			if err != nil {
				return err
			}
			budget = d
		}
		rep := cl.RunRebalance(budget)
		fmt.Fprintf(s.out, "rebalance: %d round(s), %dB re-replicated in %v, complete=%v (%d log(s), %dB stale left)\n",
			rep.Rounds, rep.RepairedBytes, rep.Elapsed, rep.Complete, rep.RemainingLogs, rep.RemainingStale)
		return nil
	default:
		return fmt.Errorf("unknown cluster subcommand %q (status|kill|revive|drain|undrain|join|remove|tick|rebalance)", sub)
	}
}

// tenant drives the QoS plane: register or update per-tenant contracts,
// inspect quotas and admission counters, and produce under a tenant
// identity so throttling and shedding can be provoked by hand. Until the
// first tenant is set, a tenant produce runs unmetered.
func (s *shell) tenant(rest []string) error {
	reg := s.lake.Tenants()
	sub := "status"
	if len(rest) > 0 {
		sub = rest[0]
		rest = rest[1:]
	}
	switch sub {
	case "status":
		sts := reg.Status()
		if len(sts) == 0 {
			fmt.Fprintln(s.out, "no tenants registered (try: tenant set <name> ...)")
			return nil
		}
		for _, st := range sts {
			fmt.Fprintf(s.out, "tenant %s: weight=%d priority=%d capacity=%dB iops=%d bw=%dB/s\n",
				st.Name, st.Weight, st.Priority, st.CapacityBytes, st.IOPS, st.BandwidthBps)
			fmt.Fprintf(s.out, "  admitted=%d (%d ops, %dB) throttled=%d capacityRejects=%d shed=%d\n",
				st.Admitted, st.AdmittedOps, st.AdmittedBytes, st.Throttled, st.CapacityRejects, st.Shed)
			fmt.Fprintf(s.out, "  stored=%dB refunded=%dops/%dB wfqDelay=%v\n",
				st.StoredBytes, st.RefundedOps, st.RefundedBytes, st.WFQDelay)
		}
		return nil
	case "set":
		if len(rest) < 1 {
			return fmt.Errorf("usage: tenant set <name> [weight=N] [priority=N] [capacity=BYTES] [iops=N] [bw=BPS]")
		}
		cfg := streamlake.TenantConfig{Name: rest[0]}
		if prev, ok := reg.Get(rest[0]); ok {
			cfg = prev // update: unmentioned knobs keep their values
		}
		for _, kv := range rest[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("expected key=value, got %q", kv)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			switch k {
			case "weight":
				cfg.Weight = int(n)
			case "priority":
				cfg.Priority = int(n)
			case "capacity":
				cfg.CapacityBytes = n
			case "iops":
				cfg.IOPS = n
			case "bw":
				cfg.BandwidthBps = n
			default:
				return fmt.Errorf("unknown knob %q (weight|priority|capacity|iops|bw)", k)
			}
		}
		if err := s.lake.SetTenant(cfg); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "tenant %s: weight=%d priority=%d capacity=%dB iops=%d bw=%dB/s (0 = unlimited)\n",
			cfg.Name, cfg.Weight, cfg.Priority, cfg.CapacityBytes, cfg.IOPS, cfg.BandwidthBps)
		return nil
	case "produce":
		if len(rest) < 4 {
			return fmt.Errorf("usage: tenant produce <tenant> <topic> <key> <value>")
		}
		if s.tenantProds == nil {
			s.tenantProds = map[string]*streamlake.Producer{}
		}
		p := s.tenantProds[rest[0]]
		if p == nil {
			p = s.lake.TenantProducer("lakectl/"+rest[0], rest[0])
			s.tenantProds[rest[0]] = p
		}
		msg, cost, err := p.Send(rest[1], []byte(rest[2]), []byte(strings.Join(rest[3:], " ")))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "offset=%d stream=%d latency=%v tenant=%s\n", msg.Offset, msg.Stream, cost, rest[0])
		return nil
	default:
		return fmt.Errorf("unknown tenant subcommand %q (status|set|produce)", sub)
	}
}

func (s *shell) printChaos(rep *chaos.Report) {
	fmt.Fprintf(s.out, "events=%d\n", rep.Events)
	for _, line := range rep.Actors {
		fmt.Fprintln(s.out, line)
	}
	fmt.Fprintf(s.out, "digest=%016x\n", rep.Digest)
	if len(rep.Violations) == 0 {
		fmt.Fprintln(s.out, "invariants: all hold (no acked-write loss, no duplicate appends, monotonic offsets)")
		return
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(s.out, "VIOLATION: "+v)
	}
}

// insert parses one row of table from raw values and inserts it into
// the write cache, which the caller flushes.
func (s *shell) insert(table string, raw []string) error {
	tbl, err := s.lake.Engine().Table(table)
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	if len(raw) != schema.NumFields() {
		return fmt.Errorf("table has %d columns, got %d values", schema.NumFields(), len(raw))
	}
	row := make(streamlake.Row, schema.NumFields())
	for i, r := range raw {
		v, err := parseValue(schema, i, r)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return s.lake.Insert(table, []streamlake.Row{row})
}

// trace runs a traced produce, poll, query, flush, compaction or
// conversion and renders its span tree, or re-prints a recorded trace by
// id.
func (s *shell) trace(rest []string) error {
	tr := s.lake.Tracer()
	if len(rest) == 0 {
		return fmt.Errorf("usage: trace produce <topic> <key> <value> | trace poll <topic> [group] [max] | trace sql <statement> | trace flush <table> [value...] | trace compact <table> <partition> | trace convert <topic> | trace last | trace <id>")
	}
	switch rest[0] {
	case "produce":
		sp := tr.Start("gateway.produce")
		sp.SetAttr("topic", rest[1])
		msg, cost, err := s.producer().SendSpanCtx(rest[1], []byte(rest[2]), []byte(strings.Join(rest[3:], " ")), sp, nil)
		if err != nil {
			return err
		}
		return s.printTrace(sp, cost, "offset=%d stream=%d ", msg.Offset, msg.Stream)
	case "poll":
		max, err := intArg(rest, 3, 32)
		if err != nil {
			return err
		}
		c, err := s.consumer(rest[1], arg(rest, 2, "lakectl"))
		if err != nil {
			return err
		}
		sp := tr.Start("streamsvc.poll")
		sp.SetAttr("topic", rest[1])
		msgs, cost, err := c.PollSpanCtx(max, sp, nil)
		if err != nil {
			return err
		}
		s.printTrace(sp, cost, "%d message(s) ", len(msgs))
		_, err = c.CommitOffsets()
		return err
	case "sql":
		sp := tr.Start("query.execute")
		res, cost, err := s.lake.QuerySpan(strings.Join(rest[1:], " "), sp)
		if err != nil {
			return err
		}
		return s.printTrace(sp, cost, "%d row(s) ", len(res.Rows))
	case "flush":
		if len(rest) > 2 {
			if err := s.insert(rest[1], rest[2:]); err != nil {
				return err
			}
		}
		sp := tr.Start("lakehouse.flush")
		sp.SetAttr("table", rest[1])
		cost, err := s.lake.Engine().FlushSpan(rest[1], sp)
		if err != nil {
			return err
		}
		return s.printTrace(sp, cost, "")
	case "compact":
		tbl, err := s.lake.Engine().Table(rest[1])
		if err != nil {
			return err
		}
		sp := tr.Start("lakebrain.compact")
		merged, cost, err := compact.CompactPartitionSpan(tbl, rest[2], 64<<20, sp)
		if err != nil {
			return err
		}
		return s.printTrace(sp, cost, "merged %d files ", merged)
	case "convert":
		sp := tr.Start("convert")
		res, cost, err := s.lake.ConvertNowSpan(rest[1], sp)
		if err != nil {
			return err
		}
		return s.printTrace(sp, cost, "converted %d messages into %d files ", res.Messages, res.Files)
	case "last":
		sp := tr.Last()
		if sp == nil {
			return fmt.Errorf("no traces recorded yet")
		}
		fmt.Fprint(s.out, sp.Tree())
		return nil
	default:
		id, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return fmt.Errorf("trace id must be an integer or 'last'")
		}
		sp := tr.Get(id)
		if sp == nil {
			return fmt.Errorf("no trace %d", id)
		}
		fmt.Fprint(s.out, sp.Tree())
		return nil
	}
}

// printTrace ends sp with cost and prints a line, the format's text then
// the latency and the trace id, over the span tree.
func (s *shell) printTrace(sp *obs.Span, cost time.Duration, format string, args ...any) error {
	sp.End(cost)
	fmt.Fprintf(s.out, format+"latency=%v trace=%d\n", append(args, cost, sp.ID)...)
	fmt.Fprint(s.out, sp.Tree())
	return nil
}

func (s *shell) scrub(rest []string) error {
	switch sub := arg(rest, 0, "run"); sub {
	case "run", "cycle": // every pass sweeps every log, so the two agree
		rep, err := s.lake.RunScrub()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "scanned %d log(s), %d extent-cop(ies), %dB verified; %d mismatch(es), %dB repaired, %d copy(ies) skipped, took %v\n",
			rep.LogsScanned, rep.ExtentsChecked, rep.BytesScanned,
			rep.Mismatches, rep.RepairedBytes, rep.SkippedCopies, rep.Elapsed)
		return nil
	case "status":
		st := s.lake.Scrubber().Stats()
		integ := s.lake.Integrity()
		fmt.Fprintf(s.out, "passes=%d logsScanned=%d bytesScanned=%dB mismatches=%d repaired=%dB elapsed=%v cursor=log/%d\n",
			st.Passes, st.LogsScanned, st.BytesScanned, st.Mismatches, st.RepairedBytes, st.Elapsed, s.lake.Scrubber().Cursor())
		fmt.Fprintf(s.out, "verifications=%d mismatches=%d fallbackReads=%d injected=%d quarantined=%dB\n",
			integ.Verifications, integ.Mismatches, integ.FallbackReads, integ.Injected, integ.Quarantined)
		return nil
	default:
		return fmt.Errorf("unknown scrub subcommand %q (run|cycle|status)", sub)
	}
}

// cache inspects or empties the lake's two-tier read cache.
func (s *shell) cache(rest []string) error {
	c := s.lake.Cache()
	if c == nil {
		return fmt.Errorf("read cache disabled (restart with -cache <MB>)")
	}
	switch sub := arg(rest, 0, "status"); sub {
	case "status":
		st := c.Stats()
		lookups := st.DRAMHits + st.SCMHits + st.Misses
		hitRate := 0.0
		if lookups > 0 {
			hitRate = float64(st.DRAMHits+st.SCMHits) / float64(lookups)
		}
		fmt.Fprintf(s.out, "lookups=%d dramHits=%d scmHits=%d misses=%d hitRate=%.1f%%\n",
			lookups, st.DRAMHits, st.SCMHits, st.Misses, hitRate*100)
		fmt.Fprintf(s.out, "fills=%d fillBytes=%dB evictions=%d demotions=%d invalidations=%d bytesSaved=%dB\n",
			st.Fills, st.FillBytes, st.Evictions, st.Demotions, st.Invalidations, st.BytesSaved)
		fmt.Fprintf(s.out, "dram: %d entr(ies), %dB used; scm: %d entr(ies), %dB used; ghost=%d key(s)\n",
			st.EntriesDRAM, st.UsedDRAM, st.EntriesSCM, st.UsedSCM, st.GhostKeys)
		return nil
	case "flush":
		n := s.lake.FlushCache()
		fmt.Fprintf(s.out, "flushed %d cached entr(ies)\n", n)
		return nil
	default:
		return fmt.Errorf("unknown cache subcommand %q (status|flush)", sub)
	}
}

func parseValue(schema streamlake.Schema, i int, raw string) (streamlake.Value, error) {
	switch schema.Fields[i].Type.String() {
	case "int64":
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return streamlake.Value{}, err
		}
		return streamlake.IntValue(n), nil
	case "float64":
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return streamlake.Value{}, err
		}
		return streamlake.FloatValue(f), nil
	case "bool":
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return streamlake.Value{}, err
		}
		return streamlake.BoolValue(b), nil
	default:
		return streamlake.StringValue(raw), nil
	}
}
