package streamlake

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/tenant"
)

// passHook passes the next pass pool writes and fails every one after.
type passHook struct{ pass, failed int }

var errHookWrite = errors.New("test: write refused")

func (h *passHook) BeforeWrite(pool.DiskID, int64) (time.Duration, error) {
	if h.pass > 0 {
		h.pass--
		return 0, nil
	}
	h.failed++
	return 0, errHookWrite
}

func (h *passHook) BeforeRead(pool.DiskID, int64) (time.Duration, error) { return 0, nil }

// An UPDATE whose data file lands but whose commit fails after writing
// its commit file leaves the table's files as they were: the commit
// withdraws the metadata it wrote and the transaction deletes the data
// file, and the write that failed holds no log. The rows stay
// readable, and the same UPDATE then commits. The update's first two
// files are the data file and the commit file, each one pool write per
// shard; its next file write fails.
func TestFailedCommitLeavesNoFileStored(t *testing.T) {
	l := openTestLake(t)
	if err := l.CreateTable(TableMeta{Name: "logs", Path: "/lake/logs", Schema: logSchema}); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 400; i++ {
		rows = append(rows, Row{StringValue(fmt.Sprintf("http://site/%d", i)), IntValue(int64(i)), StringValue("Beijing")})
	}
	if err := l.Insert("logs", rows); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushTable("logs"); err != nil {
		t.Fatal(err)
	}
	files, logs, used := l.Stats().TableFiles, l.Logs().Count(), l.SSDPool().Stats().Used
	red := tableRedundancy(1)
	hook := &passHook{pass: 2 * (red.K + red.M)}
	l.SSDPool().SetFaultHook(hook)
	lo, hi := IntValue(0), IntValue(1000)
	rename := func(r Row) Row { r[2] = StringValue("Shanghai"); return r }
	if _, err := l.Update("logs", "start_time", &lo, &hi, rename); !errors.Is(err, plog.ErrUnavailable) || hook.failed == 0 {
		t.Fatalf("update under a failing commit: %v, %d writes refused", err, hook.failed)
	}
	if got := l.Stats().TableFiles; got != files {
		t.Fatalf("a failed commit left %d table files, %d before it", got, files)
	}
	if l.Logs().Count() != logs || l.SSDPool().Stats().Used != used {
		t.Fatalf("a failed commit left %d logs holding %d B, %d holding %d B before it",
			l.Logs().Count(), l.SSDPool().Stats().Used, logs, used)
	}
	l.Faults().Attach(l.SSDPool())
	res, err := l.Query("select count(*) from logs where province = 'Beijing'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "400" {
		t.Fatalf("rows after the failed update: %v, %v", res, err)
	}
	if n, err := l.Update("logs", "start_time", &lo, &hi, rename); err != nil || n != 400 {
		t.Fatalf("update after the fault: %d rows, %v", n, err)
	}
}

// poolAccounting is what a pool has charged: its slices' used and live
// bytes and each disk's device counters.
func poolAccounting(p *pool.Pool) (pool.Stats, []sim.DeviceStats) {
	var disks []sim.DeviceStats
	for d := 0; d < p.DiskCount(); d++ {
		disks = append(disks, p.DiskStats(pool.DiskID(d)))
	}
	return p.Stats(), disks
}

// A group commit that loses more shards than its erasure code tolerates
// is all or nothing: the shards that did land are refunded, so the
// pool's live bytes and every disk's write counters read as before it.
func TestGroupCommitBeyondToleranceRefundsWrites(t *testing.T) {
	l, err := Open(Config{GroupCommitSlices: 2, PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTopic(TopicConfig{Name: "ec", StreamNum: 1, Redundancy: EC(4, 2)}); err != nil {
		t.Fatal(err)
	}
	p := l.Producer("app")
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := p.Send("ec", []byte("k"), []byte(fmt.Sprintf("payload-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(1200) // slices flush and group-commit while every disk is up
	committed := l.GroupCommitStats()
	if committed.Commits == 0 {
		t.Fatalf("no group commit before the fault: %+v", committed)
	}
	for d := 0; d < 3; d++ { // EC(4,2) over six disks: three lost is one too many
		if err := l.Faults().KillDisk("ssd", d); err != nil {
			t.Fatal(err)
		}
	}
	beforeStats, beforeDisks := poolAccounting(l.SSDPool())
	deferred := l.Obs().Counter("streamobj_flush_deferred_total")
	before := deferred.Value()
	send(1200) // acked from the journal; every flush fails and is deferred
	if deferred.Value() == before {
		t.Fatal("no slice flush failed with three of six disks down")
	}
	afterStats, afterDisks := poolAccounting(l.SSDPool())
	if afterStats.Live != beforeStats.Live || !reflect.DeepEqual(afterDisks, beforeDisks) {
		t.Fatalf("failed flushes left charges:\nlive %d -> %d\ndisks %+v\n   -> %+v",
			beforeStats.Live, afterStats.Live, beforeDisks, afterDisks)
	}
	// /metrics counts what the disks kept, so the refunded writes are
	// gone from it too.
	var ops, bytes int64
	for _, d := range afterDisks {
		ops, bytes = ops+d.WriteOps, bytes+d.WriteBytes
	}
	c := l.Obs().Snapshot().Counters
	if got := c[`pool_write_ops_total{pool="ssd"}`]; got != ops {
		t.Fatalf("pool_write_ops_total = %d, the disks' WriteOps sum to %d", got, ops)
	}
	if got := c[`pool_write_bytes_total{pool="ssd"}`]; got != bytes {
		t.Fatalf("pool_write_bytes_total = %d, the disks' WriteBytes sum to %d", got, bytes)
	}
}

// A producer restarted under the same id resends a batch the stream
// already holds: the dedup window re-acks it at its first offset, and
// the tenant's admission hands back the tokens the resend took, so the
// next send fits a two-per-second IOPS quota the resend had used up.
func TestDedupedResendRefundsTenantTokens(t *testing.T) {
	l, err := Open(Config{Tenants: []TenantConfig{{Name: "acme", IOPS: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTopic(TopicConfig{Name: "orders", StreamNum: 1}); err != nil {
		t.Fatal(err)
	}
	first, _, err := l.TenantProducer("app", "acme").Send("orders", []byte("k"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := l.TenantProducer("app", "acme").Send("orders", []byte("k"), []byte("v1"))
	if err != nil || again.Offset != first.Offset {
		t.Fatalf("resend after a restart: offset %d (first %d), %v", again.Offset, first.Offset, err)
	}
	st, _ := l.Tenants().StatsOf("acme")
	if st.RefundedOps != 1 || st.RefundedBytes != 3 {
		t.Fatalf("tenant stats after the deduplicated resend: %+v", st)
	}
	if _, _, err := l.TenantProducer("other", "acme").Send("orders", []byte("k"), []byte("v2")); err != nil {
		t.Fatalf("a send within the refunded quota: %v", err)
	}
}

// Converting a delete_msg topic releases the stream copy, and the bytes
// it frees come back to the tenant's capacity quota: a send the cap
// refused before the conversion is accepted after it.
func TestConversionReclaimCreditsTenantCapacity(t *testing.T) {
	l, err := Open(Config{PLogCapacity: 16 << 10, Tenants: []TenantConfig{{Name: "acme", CapacityBytes: 64 << 10}}})
	if err != nil {
		t.Fatal(err)
	}
	schema := MustSchema("url:string", "ts:int64")
	if err := l.CreateTopic(TopicConfig{Name: "events", StreamNum: 1, Convert: ConvertConfig{
		Enabled: true, TableName: "events_tbl", TablePath: "/events", TableSchema: schema, DeleteMsg: true,
	}}); err != nil {
		t.Fatal(err)
	}
	p := l.TenantProducer("app", "acme")
	send := func(i int) error {
		val, _ := EncodeRow(schema, Row{StringValue("u"), IntValue(int64(i))})
		_, _, err := p.Send("events", []byte(fmt.Sprint(i)), val)
		return err
	}
	var refused error
	sent := 0
	for ; sent < 10000; sent++ {
		if refused = send(sent); refused != nil {
			break
		}
	}
	var qe *tenant.QuotaError
	if !errors.As(refused, &qe) || qe.Kind != tenant.KindCapacity {
		t.Fatalf("send %d: %v, want a capacity refusal", sent, refused)
	}
	before, _ := l.Tenants().StatsOf("acme")
	res, _, err := l.ConvertNow("events")
	if err != nil || res.Messages != int64(sent) || res.FreedLog == 0 {
		t.Fatalf("conversion of %d messages: %+v, %v", sent, res, err)
	}
	after, _ := l.Tenants().StatsOf("acme")
	if after.StoredBytes >= before.StoredBytes {
		t.Fatalf("stored bytes %d -> %d after reclaiming %d bytes", before.StoredBytes, after.StoredBytes, res.FreedLog)
	}
	if err := send(sent); err != nil {
		t.Fatalf("the refused send after the reclaim: %v", err)
	}
}
