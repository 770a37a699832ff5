package dpi

import (
	"runtime"
	"strings"
	"testing"

	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
)

func TestPacketShape(t *testing.T) {
	g := NewGenerator(1)
	var total int
	n := 1000
	for i := 0; i < n; i++ {
		key, value, err := g.Packet()
		if err != nil {
			t.Fatal(err)
		}
		if len(key) == 0 {
			t.Fatal("empty key")
		}
		total += len(value)
		// Packets decode back into raw rows.
		schema, rows, err := rowcodec.Decode(value)
		if err != nil || len(rows) != 1 || !schema.Equal(RawSchema) {
			t.Fatalf("packet decode: %v", err)
		}
	}
	avg := total / n
	// The paper's average packet size is 1.2 KB.
	if avg < 1100 || avg > 1300 {
		t.Fatalf("avg packet size %d, want ~1200", avg)
	}
}

// Decoding a packet costs the same bytes whatever its payload's size:
// the decoded strings share the packet's bytes instead of copying them.
func TestPacketDecodeCostIgnoresPayload(t *testing.T) {
	raw := NewGenerator(3).RawRow()
	decodeBytes := func(pad int) uint64 {
		raw[5] = colfile.StringValue(strings.Repeat("x", pad))
		value, err := rowcodec.Encode(RawSchema, []colfile.Row{raw})
		if err != nil {
			t.Fatal(err)
		}
		const runs = 100
		least := uint64(1 << 62)
		for w := 0; w < 5; w++ { // the least window: the runtime's own allocations are not the decode's
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			testing.AllocsPerRun(runs, func() {
				if _, _, err := rowcodec.Decode(value); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/(runs+1)) // AllocsPerRun adds a warm-up call
		}
		return least
	}
	small, large := decodeBytes(100), decodeBytes(64<<10)
	t.Logf("a decode allocates %d bytes with a 100 B payload, %d with 64 KB", small, large)
	if large != small {
		t.Fatalf("a 64 KB payload costs %d bytes to decode, a 100 B one %d", large, small)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 100; i++ {
		ra, rb := a.RawRow(), b.RawRow()
		for c := range ra {
			if ra[c].String() != rb[c].String() {
				t.Fatal("same-seed generators diverge")
			}
		}
	}
}

func TestNormalizeValidatesAndShields(t *testing.T) {
	g := NewGenerator(2)
	valid, invalid := 0, 0
	for i := 0; i < 2000; i++ {
		raw := g.RawRow()
		id := raw[3].Int // Normalize hashes it in place
		norm, ok := Normalize(raw)
		if !ok {
			invalid++
			continue
		}
		valid++
		if len(norm) != NormSchema.NumFields() {
			t.Fatalf("norm shape: %d", len(norm))
		}
		// Privacy shielding: user id must not pass through unchanged.
		if norm[3].Int == id && id != 0 {
			t.Fatal("subscriber id leaked")
		}
		if norm[3].Int < 0 {
			t.Fatal("negative hash")
		}
	}
	// Roughly 2% of packets are malformed.
	if invalid == 0 || invalid > valid/10 {
		t.Fatalf("validation rates: %d valid %d invalid", valid, invalid)
	}
	// Explicit malformed cases.
	if _, ok := Normalize(nil); ok {
		t.Fatal("nil row normalized")
	}
}

func TestLabelUsesKnowledgeBase(t *testing.T) {
	g := NewGenerator(3)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		raw := g.RawRow()
		norm, ok := Normalize(raw)
		if !ok {
			continue
		}
		lab := Label(norm)
		if len(lab) != LabeledSchema.NumFields() {
			t.Fatalf("labeled shape: %d", len(lab))
		}
		label := lab[len(lab)-1].Str
		if label == "" {
			t.Fatal("empty label")
		}
		seen[label] = true
		if norm[0].Str == FinAppURL && label != "finance" {
			t.Fatalf("fin app labeled %q", label)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("label diversity: %v", seen)
	}
}

func TestDAUQuerySQL(t *testing.T) {
	sql := DAUQuery("tb_dpi_log_hours", 0)
	for _, frag := range []string{"COUNT(*)", FinAppURL, "Group By province", "1656806400"} {
		if !strings.Contains(sql, frag) {
			t.Fatalf("query %q missing %q", sql, frag)
		}
	}
}

// Normalize and Label reuse the raw row: the label lands in the payload
// slot. A normalized row with no spare capacity is copied once instead.
func TestStagesRunInPlace(t *testing.T) {
	g := NewGenerator(4)
	raw := g.RawRow()
	for raw[0].Str == "" {
		raw = g.RawRow()
	}
	norm, ok := Normalize(raw)
	if !ok || &norm[0] != &raw[0] {
		t.Fatal("Normalize copied the raw row")
	}
	lab := Label(norm)
	if &lab[0] != &raw[0] || raw[5].Str != lab[5].Str {
		t.Fatal("Label did not fill the payload slot")
	}
	exact := append(colfile.Row(nil), norm...)[:5:5]
	if lab2 := Label(exact); &lab2[0] == &exact[0] || len(lab2) != 6 || cap(lab2) != 6 || lab2[5].Str != lab[5].Str {
		t.Fatalf("a full row labelled: len %d cap %d", len(lab2), cap(lab2))
	}
}
