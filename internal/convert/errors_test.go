package convert

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"streamlake/internal/colfile"
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
	res, _, err := e.conv.RunOnce()
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
	if _, _, err := e.conv.ForceTopic("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.lh.DropSoft("gone_table"); err != nil {
		t.Fatal(err)
	}
	produceRows(t, e, "gone", 10)
	if _, _, err := e.conv.ForceTopic("gone"); !errors.Is(err, tableobj.ErrTableDropped) {
		t.Fatalf("conversion into a soft-dropped table: %v, want ErrTableDropped", err)
	}
}

func TestConverterSkipsEmptyTopics(t *testing.T) {
	e := newEnv(t)
	e.svc.CreateTopic(convertTopic("empty"))
	res, cost, err := e.conv.RunOnce()
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
	res, _, err := e.conv.ForceTopic("raw")
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
	if res, _, _ := e.conv.RunOnce(); len(res) != 0 {
		t.Fatal("converted before the timer started")
	}
	e.clock.Advance(11 * time.Minute)
	if res, _, _ := e.conv.RunOnce(); len(res) != 1 {
		t.Fatal("first time trigger missed")
	}
	// Immediately after, the timer restarts: nothing converts.
	produceRows(t, e, "tt", 2)
	if res, _, _ := e.conv.RunOnce(); len(res) != 0 {
		t.Fatal("converted before the timer elapsed again")
	}
	e.clock.Advance(11 * time.Minute)
	res, _, _ := e.conv.RunOnce()
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
			if _, _, err := e.conv.RunOnce(); err != nil {
				t.Fatal(err)
			}
		}
		tbl, _, err := tableobj.Open(e.clock, e.fs, e.cat, "logs_table")
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
