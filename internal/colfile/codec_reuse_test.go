package colfile

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// A writer reuses one DEFLATE compressor and one scratch buffer for all
// its chunks. The file must be byte for byte what a fresh compressor per
// chunk produces — the format, stored bytes and every digest built on
// them depend on it.
func TestReusedEncoderStateIsByteIdentical(t *testing.T) {
	const rows, groupSize = 1000, 96 // eleven groups, the last one ragged
	data := buildFile(t, rows, groupSize)
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]Row, rows)
	for i := range all {
		all[i] = makeRow(i)
	}
	for g := 0; g < r.NumRowGroups(); g++ {
		group := all[g*groupSize : min((g+1)*groupSize, rows)]
		for c, f := range testSchema.Fields {
			raw, err := appendChunk(nil, f.Type, group, c)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			fw, err := flate.NewWriter(&fresh, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			fw.Write(raw)
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			ch := r.groups[g].chunks[c]
			if got := data[ch.offset : ch.offset+ch.length]; !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("group %d column %d: reused-state chunk (%d B) differs from fresh-state chunk (%d B)",
					g, c, len(got), fresh.Len())
			}
		}
	}
}

// One inflater serves chunk after chunk. A chunk that fails to inflate
// must leave nothing behind that the next chunk can see.
func TestInflaterReuseAfterError(t *testing.T) {
	data := buildFile(t, 500, 100)
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ch := r.groups[2].chunks[0]
	good := data[ch.offset : ch.offset+ch.length]
	var fresh inflater
	want, err := fresh.inflate(good)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Clone(want)

	var d inflater
	for _, bad := range [][]byte{
		good[:len(good)/2],                        // truncated stream
		append([]byte{0x07}, good...),             // reserved block type
		bytes.Repeat([]byte{0xff}, len(good)),     // garbage
		append(bytes.Clone(good[:8]), 0xff, 0xff), // cut mid-block
	} {
		if _, err := d.inflate(bad); err == nil {
			continue // some damage still inflates; only the next call matters
		}
		got, err := d.inflate(good)
		if err != nil {
			t.Fatalf("good chunk after a failed one: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("good chunk after a failed one inflated differently")
		}
	}

	// The same through the pool: a damaged file, then the intact one.
	broken := bytes.Clone(data)
	for i := ch.offset; i < ch.offset+ch.length; i++ {
		broken[i] ^= 0x5a
	}
	if br, err := Open(broken); err == nil {
		br.ReadColumn(2, 0) // error or garbage, never a panic
	}
	vals, err := r.ReadColumn(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != makeRow(200 + i)[0] {
			t.Fatalf("row %d after a failed decode: %v", i, v)
		}
	}
}

// ReadGroup with a projection returns exactly the named columns of the
// all-column read, for any group size and any projection (empty and
// repeated columns included).
func TestProjectedReadGroupEqualsFullRead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		rows, groupSize := 1+rng.Intn(400), 1+rng.Intn(120)
		r, err := Open(buildFile(t, rows, groupSize))
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			full, err := r.ReadGroup(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			cols := make([]int, rng.Intn(testSchema.NumFields()+2))
			for i := range cols {
				cols[i] = rng.Intn(testSchema.NumFields())
			}
			got, err := r.ReadGroup(g, cols)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(cols) {
				t.Fatalf("projection %v returned %d columns", cols, len(got))
			}
			for i, c := range cols {
				if !reflect.DeepEqual(got[i], full[c]) {
					t.Fatalf("rows %d group size %d group %d: projected column %d differs", rows, groupSize, g, c)
				}
			}
		}
	}
}

// Readers on different goroutines share the pooled inflaters; run under
// -race.
func TestConcurrentReadersShareInflaters(t *testing.T) {
	data := buildFile(t, 2000, 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := Open(data)
			if err != nil {
				t.Error(err)
				return
			}
			for g := 0; g < r.NumRowGroups(); g++ {
				cols, err := r.ReadGroup(g, []int{w % 6, 1})
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range cols[1] {
					if want := makeRow(g*128 + i)[1]; v != want {
						t.Errorf("worker %d group %d row %d: %v, want %v", w, g, i, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkWriteFile encodes one 2,000-row file, the size of an insert
// batch: the compressor's construction is part of every file.
func BenchmarkWriteFile(b *testing.B) {
	rows := make([]Row, 2000)
	for i := range rows {
		rows[i] = makeRow(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(testSchema, 256)
		for _, r := range rows {
			w.Append(r)
		}
		if _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadGroupProjected decodes two of six columns of every group,
// what a selective query asks of a file.
func BenchmarkReadGroupProjected(b *testing.B) {
	r, err := Open(buildFile(b, 10000, 0))
	if err != nil {
		b.Fatal(err)
	}
	cols := []int{1, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < r.NumRowGroups(); g++ {
			if _, err := r.ReadGroup(g, cols); err != nil {
				b.Fatal(err)
			}
		}
	}
}
