package main

import (
	"io"
	"strings"
	"testing"

	"streamlake"
)

func newShell(t *testing.T) *shell {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return &shell{lake: lake, out: io.Discard}
}

func TestShellTopicProduceConsume(t *testing.T) {
	s := newShell(t)
	for _, cmd := range []string{
		"create-topic logs 2",
		"produce logs key1 hello world",
		"consume logs",
		"stats",
		"help",
	} {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
}

func TestShellTableInsertSQL(t *testing.T) {
	s := newShell(t)
	cmds := []string{
		"create-table users province name:string age:int64 score:float64 active:bool province:string",
		"insert users alice 30 9.5 true Beijing",
		"insert users bob 25 7.25 false Shanghai",
		"sql select count(*) from users group by province",
		"snapshot users",
		"compact users province=Beijing",
	}
	for _, cmd := range cmds {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	// Bare SELECT works without the sql prefix.
	if err := s.exec("select count(*) from users"); err != nil {
		t.Fatal(err)
	}
}

func TestShellConvert(t *testing.T) {
	s := newShell(t)
	schema := streamlake.MustSchema("k:string", "v:int64")
	if err := s.lake.CreateTopic(streamlake.TopicConfig{
		Name: "ev", StreamNum: 1,
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: "ev_tbl", TablePath: "/ev",
			TableSchema: schema, SplitOffset: 1000,
		},
	}); err != nil {
		t.Fatal(err)
	}
	p := s.lake.Producer("t")
	val, _ := streamlake.EncodeRow(schema, streamlake.Row{
		streamlake.StringValue("x"), streamlake.IntValue(1),
	})
	p.Send("ev", []byte("k"), val)
	if err := s.exec("convert ev"); err != nil {
		t.Fatal(err)
	}
	if err := s.exec("sql select count(*) from ev_tbl"); err != nil {
		t.Fatal(err)
	}
}

func TestShellProduceIsNotDeduplicated(t *testing.T) {
	s := newShell(t)
	if err := s.exec("create-topic seq 1"); err != nil {
		t.Fatal(err)
	}
	// The shell's producer must be long-lived: a fresh handle per command
	// would restart the idempotence sequence, turning every produce after
	// the first into a deduplicated retransmit.
	for i := 0; i < 5; i++ {
		if err := s.exec("produce seq k v"); err != nil {
			t.Fatal(err)
		}
	}
	c := s.lake.Consumer("check")
	if err := c.Subscribe("seq"); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := c.Poll(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 5 {
		t.Fatalf("5 produces stored %d messages", len(msgs))
	}
}

func TestShellFaultsAndRepair(t *testing.T) {
	s := newShell(t)
	if err := s.exec("create-topic resilient 2"); err != nil {
		t.Fatal(err)
	}
	// Drive enough traffic that stream slices flush into PLog chains, so
	// the kill below leaves stale copies for the repair pass to restore.
	p := s.lake.Producer("")
	for i := 0; i < 600; i++ {
		if _, _, err := p.Send("resilient", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, cmd := range []string{
		"faults",
		"faults status",
		"faults kill ssd 0",
		"faults kill-random ssd",
		"faults revive ssd 0",
		"faults write-error 0.25",
		"faults write-error 0",
		"faults read-error 0.1",
		"faults slow ssd 1 5ms",
		"faults slow ssd 1 0s",
		"faults clear",
		"repair",
		"repair 4",
		"stats",
	} {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if st := s.lake.Stats(); st.DegradedLogs != 0 {
		t.Fatalf("logs still degraded after clear+repair: %+v", st)
	}
}

func TestShellFaultsErrors(t *testing.T) {
	s := newShell(t)
	for _, cmd := range []string{
		"faults bogus",
		"faults kill",
		"faults kill ssd notanint",
		"faults kill nopool 0",
		"faults kill ssd 99",
		"faults kill-random",
		"faults revive ssd",
		"faults write-error",
		"faults write-error notarate",
		"faults write-error 2",
		"faults read-error -0.5",
		"faults slow ssd 1 -5ms",
		"faults slow ssd 1",
		"faults slow ssd 1 notadur",
		"repair notanint",
	} {
		if err := s.exec(cmd); err == nil {
			t.Fatalf("%q accepted", cmd)
		}
	}
}

func TestShellErrors(t *testing.T) {
	s := newShell(t)
	bad := []string{
		"bogus-command",
		"create-topic onlyname",
		"create-topic t notanumber",
		"produce missing-args",
		"consume",
		"create-table t",
		"create-table t - bad-spec",
		"insert ghost 1",
		"sql select from",
		"convert ghost",
		"compact t",
		"snapshot ghost",
	}
	for _, cmd := range bad {
		if err := s.exec(cmd); err == nil {
			t.Fatalf("%q accepted", cmd)
		}
	}
	// Wrong arity insert.
	s.exec("create-table t2 - a:int64 b:string")
	if err := s.exec("insert t2 1"); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("arity error: %v", err)
	}
	if err := s.exec("insert t2 notanint x"); err == nil {
		t.Fatal("bad int literal accepted")
	}
}

// TestShellTracePoll: trace poll renders the consume path's span tree,
// and the group's next poll resumes where the last one committed and
// walks the slice the last one stopped inside without reading it again.
func TestShellTracePoll(t *testing.T) {
	s := newShell(t)
	if err := s.exec("create-topic dpi 1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := s.exec("produce dpi k payload"); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	s.out = &out
	for _, cmd := range []string{"trace poll dpi g 300", "trace poll dpi g 300"} {
		if err := s.exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	got := out.String()
	for _, want := range []string{
		"300 message(s)", "streamobj.read", "{offset=0 records=300 stream=0}",
		"{offset=300 records=300 stream=0}", "plog.read", "src=device", "src=held",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("trace poll output lacks %q:\n%s", want, got)
		}
	}
}
