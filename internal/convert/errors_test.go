package convert

import (
	"errors"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/pool"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tableobj"
)

func TestConverterReusesExistingTable(t *testing.T) {
	// If the target table already exists in the catalog, conversion
	// appends to it instead of failing or recreating.
	e := newEnv(t)
	if _, _, err := tableobj.Create(e.clock, e.fs, e.cat, tableobj.TableMeta{
		Name: "pre_table", Path: "/lake/pre", Schema: logSchema, PartitionColumn: "province",
	}); err != nil {
		t.Fatal(err)
	}
	cfg := streamsvc.TopicConfig{
		Name: "pre", StreamNum: 1,
		Convert: streamsvc.ConvertConfig{
			Enabled: true, TableName: "pre_table", TablePath: "/lake/pre",
			TableSchema: logSchema, PartitionColumn: "province", SplitOffset: 10,
		},
	}
	e.svc.CreateTopic(cfg)
	produceRows(t, e, "pre", 20)
	res, _, err := e.conv.RunOnce(nil)
	if err != nil || len(res) != 1 || res[0].Messages != 20 {
		t.Fatalf("conversion into existing table: %+v %v", res, err)
	}
}

// A soft-dropped table is not a missing one: conversion into it fails
// rather than writing files no snapshot the catalog serves will show.
func TestConversionIntoSoftDroppedTableFails(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("gone"))
	produceRows(t, e, "gone", 10)
	if _, _, err := e.conv.ForceTopic("gone", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.lh.DropSoft("gone_table"); err != nil {
		t.Fatal(err)
	}
	produceRows(t, e, "gone", 10)
	if _, _, err := e.conv.ForceTopic("gone", nil); !errors.Is(err, tableobj.ErrTableDropped) {
		t.Fatalf("conversion into a soft-dropped table: %v, want ErrTableDropped", err)
	}
}

func TestConverterSkipsEmptyTopics(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("empty"))
	res, cost, err := e.conv.RunOnce(nil)
	if err != nil || len(res) != 0 || cost != 0 {
		t.Fatalf("empty topic conversion: %+v %v %v", res, cost, err)
	}
}

func TestTransformHookApplied(t *testing.T) {
	e := newEnv(t)
	cfg := convertTopic("raw")
	// The transform turns arbitrary text payloads into schema rows and
	// rejects payloads starting with '!'.
	cfg.Convert.Transform = func(key, value []byte) (colfile.Row, bool) {
		if len(value) > 0 && value[0] == '!' {
			return nil, false
		}
		return colfile.Row{
			colfile.StringValue(string(value)),
			colfile.IntValue(int64(len(value))),
			colfile.StringValue("Beijing"),
		}, true
	}
	e.svc.CreateTopic(cfg)
	p := e.svc.Producer("")
	p.Send("raw", []byte("k"), []byte("good-one"))
	p.Send("raw", []byte("k"), []byte("!bad"))
	p.Send("raw", []byte("k"), []byte("good-two"))
	res, _, err := e.conv.ForceTopic("raw", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || res.Malformed != 1 {
		t.Fatalf("transform results: %+v", res)
	}
}

func TestTimeTriggerResetsAfterRun(t *testing.T) {
	e := newEnv(t)
	cfg := convertTopic("tt")
	cfg.Convert.SplitOffset = 1 << 40
	cfg.Convert.SplitTime = 10 * time.Minute
	e.svc.CreateTopic(cfg)
	produceRows(t, e, "tt", 3)
	// The converter's timer starts when it first observes the topic.
	if res, _, _ := e.conv.RunOnce(nil); len(res) != 0 {
		t.Fatal("converted before the timer started")
	}
	e.clock.Advance(11 * time.Minute)
	if res, _, _ := e.conv.RunOnce(nil); len(res) != 1 {
		t.Fatal("first time trigger missed")
	}
	// Immediately after, the timer restarts: nothing converts.
	produceRows(t, e, "tt", 2)
	if res, _, _ := e.conv.RunOnce(nil); len(res) != 0 {
		t.Fatal("converted before the timer elapsed again")
	}
	e.clock.Advance(11 * time.Minute)
	res, _, _ := e.conv.RunOnce(nil)
	if len(res) != 1 || res[0].Messages != 2 {
		t.Fatalf("second time trigger: %+v", res)
	}
}

// A conversion run writes one file per partition; which file gets which
// id must follow from the messages, not from map iteration order. With
// three partitions an unsorted walk agrees by chance one run in six.
func TestConversionFileOrderIsDeterministic(t *testing.T) {
	convert := func() []string {
		e := newEnv(t)
		e.svc.CreateTopic(convertTopic("logs"))
		var paths []string
		for run := 0; run < 3; run++ {
			produceRows(t, e, "logs", 120)
			if _, _, err := e.conv.RunOnce(nil); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := tableobj.Open(e.clock, e.fs, e.cat, "logs_table")
		if err != nil {
			t.Fatal(err)
		}
		cur, _, err := tbl.Current()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range cur.Files {
			paths = append(paths, f.Path)
		}
		return paths
	}
	want := convert()
	if len(want) != 9 {
		t.Fatalf("%d files, want 9: %v", len(want), want)
	}
	for i := 0; i < len(want); i += 3 {
		if !sort.StringsAreSorted(want[i : i+3]) {
			t.Fatalf("run %d wrote its partitions out of order: %v", i/3, want[i:i+3])
		}
	}
	for run := 0; run < 4; run++ {
		if got := convert(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d wrote\n%v\nfirst run wrote\n%v", run, got, want)
		}
	}
}

// failFrom fails every pool write from the nth one after it is armed
// with n > 0, and counts the writes it sees while armed.
type failFrom struct{ n, seen atomic.Int64 }

var errInjected = errors.New("injected write fault")

func (h *failFrom) BeforeWrite(pool.DiskID, int64) (time.Duration, error) {
	if n := h.n.Load(); n > 0 && h.seen.Add(1) >= n {
		return 0, errInjected
	}
	return 0, nil
}

func (h *failFrom) BeforeRead(pool.DiskID, int64) (time.Duration, error) { return 0, nil }

// A conversion of three partitions whose table writes start failing at
// any point — a partition file, the commit file, the checkpoint, the
// snapshot header — leaves no data file the current snapshot does not
// reach, and converts its messages exactly once when run again.
func TestFailedConversionLeavesNoDataFiles(t *testing.T) {
	for n := int64(1); ; n++ {
		e := newEnv(t)
		e.svc.CreateTopic(convertTopic("f"))
		produceRows(t, e, "f", 30)
		if _, _, err := e.conv.ForceTopic("f", nil); err != nil { // the table exists
			t.Fatal(err)
		}
		produceRows(t, e, "f", 60)
		hook := &failFrom{}
		hook.n.Store(n)
		e.tpool.SetFaultHook(hook)
		_, _, err := e.conv.ForceTopic("f", nil)
		hook.n.Store(0)
		if err == nil {
			if n < 12 { // three data files and two metadata files at least, six writes each
				t.Fatalf("conversion with writes failing from the %dth succeeded", n)
			}
			return
		}
		tbl, err := e.lh.Table("f_table")
		if err != nil {
			t.Fatal(err)
		}
		cur, _, err := tbl.Current()
		if err != nil {
			t.Fatal(err)
		}
		reached := map[string]bool{}
		for _, f := range cur.Files {
			reached[f.Path] = true
		}
		stored, _ := e.fs.List("/lake/f/data/")
		for _, p := range stored {
			if !reached[p] {
				t.Fatalf("writes failing from the %dth: %s is stored but no snapshot reaches it", n, p)
			}
		}
		res, _, err := e.conv.ForceTopic("f", nil)
		if err != nil || res.Messages != 60 {
			t.Fatalf("writes failing from the %dth: the retry converted %d messages (%v), want 60", n, res.Messages, err)
		}
		if cur, _, err = tbl.Current(); err != nil || cur.RowCount != 90 {
			t.Fatalf("writes failing from the %dth: %d rows after the retry (%v), want 90", n, cur.RowCount, err)
		}
	}
}
