package streamlake_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"streamlake"
)

// runPollDrain drains a two-stream topic whose 256-record slices a
// Poll(500) straddles, tracing every poll with one consumer, and
// returns the span trees.
func runPollDrain(t *testing.T) []byte {
	t.Helper()
	lake, err := streamlake.Open(streamlake.Config{PLogCapacity: 1 << 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.CreateTopic(streamlake.TopicConfig{Name: "dpi", StreamNum: 2}); err != nil {
		t.Fatal(err)
	}
	p := lake.Producer("spans")
	value := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 1300; i++ {
		if _, _, err := p.Send("dpi", []byte(fmt.Sprintf("k%d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	c := lake.Consumer("g")
	if err := c.Subscribe("dpi"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for n := -1; n != 0; {
		sp := lake.Tracer().Start("streamsvc.poll")
		msgs, cost, err := c.PollSpanCtx(500, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp.End(cost)
		n = len(msgs)
		fmt.Fprintf(&out, "poll: %d message(s)\n%s", n, sp.Tree())
	}
	return out.Bytes()
}

// TestPollSpanGolden pins the consume path's span tree: a drain of a
// straddled topic renders streamsvc.poll → streamobj.read → plog.read,
// byte-identical to testdata/spans/poll.txt.
func TestPollSpanGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "spans", "poll.txt"), runPollDrain)
}
