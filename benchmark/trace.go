package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public entry point, recorded
// from the benchmark's own files (nothing inside the program is
// instrumented). Times are nanoseconds since the recorder started. The
// name is an index into the recorder's names: a span then holds no
// pointer, and the millions of them a traced run keeps cost the garbage
// collector nothing to mark, in the traced rounds and under the ladder's
// replays alike.
type span struct {
	name   int32
	Parent int32 // index of the causing span, -1 for a root
	Round  int32
	Start  int64
	End    int64
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs pay (almost) nothing.
type recorder struct {
	t0    time.Time
	round int32
	spans []span
	names []string
	ids   map[string]int32
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<20), ids: map[string]int32{}}
}

// id is the index of a span name; -1 for one never recorded.
func (r *recorder) id(name string) int32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	return -1
}

// begin opens a span and returns its index. The clock is read after the
// span has its slot, so that growing the slice is never inside a span.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	n, ok := r.ids[name]
	if !ok {
		n = int32(len(r.names))
		r.names = append(r.names, name)
		r.ids[name] = n
	}
	r.spans = append(r.spans, span{name: n, Parent: parent, Round: r.round})
	id := len(r.spans) - 1
	r.spans[id].Start = int64(time.Since(r.t0))
	return int32(id)
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// dur is a finished span's duration.
func (r *recorder) dur(id int32) time.Duration {
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// perRound sums the durations of the spans called name, round by round,
// in ns; nil when there is no such span.
func (r *recorder) perRound(name string) []float64 {
	var sums []float64
	n := r.id(name)
	for i := range r.spans {
		s := &r.spans[i]
		if s.name != n {
			continue
		}
		for int(s.Round) >= len(sums) {
			sums = append(sums, 0)
		}
		sums[s.Round] += float64(s.End - s.Start)
	}
	return sums
}

// durations lists the span durations called name, in µs.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	n := r.id(name)
	for i := range r.spans {
		if s := &r.spans[i]; s.name == n {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// spanFileCap bounds how many spans of one name reach spans.jsonl; a
// full ingest trace is several million lines otherwise. Totals and
// percentiles in the layer metrics are always computed over all spans.
const spanFileCap = 50

// writeJSONL writes the recorded spans, capped per name, one JSON
// object per line, each tagged with the workload.
func (r *recorder) writeJSONL(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	written := make([]int, len(r.names))
	for i, s := range r.spans {
		if written[s.name] >= spanFileCap {
			continue
		}
		written[s.name]++
		line := struct {
			Workload string `json:"workload"`
			ID       int    `json:"id"`
			Name     string `json:"name"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			Parent   int32  `json:"parent"`
			Round    int32  `json:"round"`
		}{workload, i, r.names[s.name], s.Start, s.End, s.Parent, s.Round}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
