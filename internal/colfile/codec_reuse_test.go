package colfile

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// A writer reuses one encoder — the DEFLATE compressor and the column
// encoders' buffers — for all its chunks, and the encoder is kept
// between files, so it last served some other file. The file must be
// byte for byte what a fresh compressor per chunk produces — the format,
// stored bytes and every digest built on them depend on it.
func TestReusedEncoderStateIsByteIdentical(t *testing.T) {
	// The encoder of another file: other schema, other group size, its
	// last group left pending, its dictionaries full.
	other := NewWriter(MustSchema("k:string", "v:float64", "n:int64", "s:string"), 37)
	for i := 0; i < 500; i++ {
		other.Append(Row{StringValue(fmt.Sprintf("key-%d", i*7919%613)), FloatValue(float64(i) / 3), IntValue(int64(i * i)), StringValue(fmt.Sprint(i % 3))})
	}
	const rows, groupSize = 1000, 96 // eleven groups, the last one ragged
	for len(idleColumns) > 0 {
		<-idleColumns
	}
	idleColumns <- other.cols // other is never finished, so only this puts them there
	w := NewWriter(testSchema, groupSize)
	for i := 0; i < rows; i++ {
		if err := w.Append(makeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buildFile(t, rows, groupSize)) {
		t.Fatal("the same rows through another file's compressor make a different file")
	}
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

// What a 2,000-row file (an insert batch) allocates to encode, measured
// over many files: the file's own buffers, far below the ≈1.2 MB a
// DEFLATE compressor costs to build. Building one per file fails here,
// and so does keeping it where a collection can drop it. A writer that
// is recycled encodes into the shared file buffer, so what is left is
// the group directory and the compressor's per-chunk state.
func TestWriterAllocBytesPerFile(t *testing.T) {
	rows := make([]Row, 2000)
	for i := range rows {
		rows[i] = makeRow(i)
	}
	write := func(recycle bool) {
		w := NewWriter(testSchema, 256)
		for _, r := range rows {
			w.Append(r)
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if recycle {
			w.Recycle()
		}
	}
	write(true) // the first file builds the compressor and the file buffer
	const files = 100
	perFile := func(recycle bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < files; i++ {
			write(recycle)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / files
	}
	const ceiling, recycled = 128 << 10, 7 << 10
	if got := perFile(true); got > recycled {
		t.Fatalf("a recycled 2000-row file allocates %d B to encode, ceiling %d B", got, recycled)
	} else {
		t.Logf("a recycled 2000-row file allocates %d B to encode", got)
	}
	got := perFile(false)
	if got > ceiling {
		t.Fatalf("a 2000-row file allocates %d KB to encode, ceiling %d KB", got>>10, ceiling>>10)
	}
	t.Logf("a 2000-row file allocates %d KB to encode", got>>10)

	// The idle encoder outlives collections, so the heap holds it
	// whether or not the collector ran since the last file: the next file
	// still builds none.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write(false)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > ceiling {
		t.Fatalf("a file written after two collections allocates %d KB: the idle encoder was dropped", d>>10)
	}
}

// A finished writer goes back to the garbage collector whole: the idle
// encoder it used no longer points at its buffer, and the shared file
// buffer it recycled, now at rest, does not point at it, so one
// collection frees it.
func TestFinishedWriterIsNotPinned(t *testing.T) {
	runtime.GC()                        // drops an earlier test's writer that kept the file buffer unrecycled
	NewWriter(testSchema, 64).Recycle() // so this one takes it and puts it at rest
	freed := make(chan struct{})
	func() {
		w := NewWriter(testSchema, 64)
		if w.lease == nil {
			t.Fatal("a writer did not borrow the file buffer at rest")
		}
		for i := 0; i < 200; i++ {
			w.Append(makeRow(i))
		}
		runtime.SetFinalizer(w, func(*Writer) { close(freed) })
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		w.Recycle()
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a finished Writer outlived a collection: an idle slot still references it")
	}
	if cap(fileBuf.idle) != fileBufSize {
		t.Fatalf("the file buffer at rest has capacity %d, want %d", cap(fileBuf.idle), fileBufSize)
	}

	// Nor does the idle encoder keep a caller's string: it copies what
	// it keeps of one, so the buffer strings point into is freed by one
	// collection, though they filled the last chunks' dictionaries and
	// bounds.
	type message struct{ b [1 << 16]byte }
	bufFreed := make(chan struct{})
	func() {
		m := new(message)
		for i := range m.b {
			m.b[i] = 'a' + byte(i%26)
		}
		s := unsafe.String(&m.b[0], len(m.b)) // strings borrowing the buffer, as rowcodec.Decode's do
		runtime.SetFinalizer(m, func(*message) { close(bufFreed) })
		w := NewWriter(MustSchema("s:string", "t:string"), 64)
		for i := 0; i < 100; i++ {
			if err := w.Append(Row{StringValue(s[i : i+8]), StringValue(s[i*300 : i*300+300])}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-bufFreed:
	case <-time.After(5 * time.Second):
		t.Fatal("a caller's string buffer outlived a collection after Finish: the idle encoder keeps one of its strings")
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
		br.ReadGroup(2, []int{0}) // error or garbage, never a panic
	}
	cols, err := r.ReadGroup(2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cols[0] {
		if v != makeRow(200 + i)[0] {
			t.Fatalf("row %d after a failed decode: %v", i, v)
		}
	}
}

// ReadGroup with a projection returns exactly the named columns of the
// all-column read, for any group size and any projection (empty and
// repeated columns included) — and so does ReadColumns, whatever its
// dst holds: too few columns or too many, buffers shorter or longer than
// the group, and leftovers of other column types.
func TestProjectedReadGroupEqualsFullRead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dirty := func(n int) []Column {
		dst := make([]Column, n)
		for i := range dst {
			dst[i] = MakeColumn(Type(rng.Intn(4)), 0)
			for j := rng.Intn(200); j > 0; j-- {
				dst[i].Ints = append(dst[i].Ints, int64(j))
				dst[i].Floats = append(dst[i].Floats, float64(j))
				dst[i].Strs = append(dst[i].Strs, fmt.Sprint(j))
				dst[i].Bools = append(dst[i].Bools, j%2 == 0)
			}
		}
		return dst
	}
	same := func(got []Column, cols []int, full [][]Value) bool {
		for i, c := range cols {
			if got[i].Len() != len(full[c]) {
				return false
			}
			for j, v := range full[c] {
				if got[i].Value(j) != v {
					return false
				}
			}
		}
		return true
	}
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
			spare := dirty(len(cols) + 3)
			for _, dst := range [][]Column{nil, dirty(len(cols) / 2), spare[:len(cols)/2], dirty(len(cols) + 3), spare} {
				got, err := r.ReadColumns(g, cols, dst)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(cols) {
					t.Fatalf("projection %v returned %d columns", cols, len(got))
				}
				if !same(got, cols, full) {
					t.Fatalf("rows %d group size %d group %d: projection %v differs", rows, groupSize, g, cols)
				}
			}
			all := []int{0, 1, 2, 3, 4, 5}
			if got, err := r.ReadColumns(g, nil, dirty(2)); err != nil || len(got) != len(full) || !same(got, all, full) {
				t.Fatalf("group %d: all-column read into dirty buffers differs (%v)", g, err)
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

// Writers on different goroutines share the idle encoder; run under
// -race. Every file must equal the same rows written alone.
func TestConcurrentWritersShareCompressors(t *testing.T) {
	const workers = 8
	want := make([][]byte, workers)
	for w := range want {
		want[w] = buildFile(t, 300+250*w, 128)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < 4; f++ {
				wr := NewWriter(testSchema, 128)
				for i := 0; i < 300+250*w; i++ {
					wr.Append(makeRow(i))
				}
				if got, err := wr.Finish(); err != nil || !bytes.Equal(got, want[w]) {
					t.Errorf("worker %d file %d differs from the same rows written alone (%v)", w, f, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkWriteFile encodes one 2,000-row file, the size of an insert
// batch, through the idle encoder into the shared file buffer, which it
// recycles as a table write does.
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
		w.Recycle()
	}
}

// BenchmarkReadColumnsProjected decodes two of six columns of every
// group into typed columns it keeps, what a selective query asks of a
// file.
func BenchmarkReadColumnsProjected(b *testing.B) {
	r, err := Open(buildFile(b, 10000, 0))
	if err != nil {
		b.Fatal(err)
	}
	cols := []int{1, 3}
	var dst []Column
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < r.NumRowGroups(); g++ {
			if dst, err = r.ReadColumns(g, cols, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Ten writers open at once — a conversion's partition files — borrow the
// one idle compressor for each row-group flush in turn: together they
// allocate less than one compressor costs to build. Writers that each
// held a compressor from their first row to Finish built nine.
func TestOpenWritersShareOneCompressor(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flate.NewWriter(io.Discard, flate.BestSpeed)
	runtime.ReadMemStats(&after)
	compressor := after.TotalAlloc - before.TotalAlloc
	buildFile(t, 100, 0) // the idle compressor exists
	ws := make([]*Writer, 10)
	for i := range ws {
		ws[i] = NewWriter(testSchema, 256)
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < 3000; i++ { // each writer flushes a group, and one more at Finish
		if err := ws[i%len(ws)].Append(makeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range ws {
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= compressor {
		t.Fatalf("ten open writers allocated %d KB, a compressor costs %d KB", got>>10, compressor>>10)
	}
}

// Once its column buffers have held a group, a writer appends a row
// without allocating.
func TestWriterAppendAllocatesNothingPerRow(t *testing.T) {
	const groupSize = 1024
	rows := make([]Row, groupSize)
	for i := range rows {
		rows[i] = makeRow(i)
	}
	w := NewWriter(testSchema, groupSize)
	for _, r := range rows { // the first group sizes the buffers
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(groupSize-2, func() { w.Append(rows[i]); i++ }); n != 0 {
		t.Fatalf("Append made %v allocations per row, want 0", n)
	}
}
