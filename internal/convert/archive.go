package convert

import (
	"sync"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tiering"
)

// ArchiveResult reports one topic's archiving outcome.
type ArchiveResult struct {
	Topic         string
	Messages      int64
	RawBytes      int64 // stream bytes drained
	ArchivedBytes int64 // bytes landed in the archive (smaller if row_2_col)
	External      bool
	Freed         int64
}

// Archiver automates the archiving of historical stream data (the
// archive block of Figure 8): when a topic accumulates archive_size
// bytes, its drained messages move to the cost-effective archive pool —
// optionally converted to columnar format first — or are exported to an
// external system. A convert-enabled topic's stream data is reclaimed
// only once its converter has converted it.
type Archiver struct {
	conv   *Converter
	tiers  *tiering.Service
	extDev *sim.Device

	mu       sync.Mutex
	marks    map[string][]int64 // per-topic per-stream archive watermarks
	archived map[string]int64
}

// NewArchiver builds an archiver over the converter's topics, storing
// into the given tiering service's archive tier.
func NewArchiver(conv *Converter, tiers *tiering.Service) *Archiver {
	return &Archiver{
		conv:     conv,
		tiers:    tiers,
		extDev:   sim.NewDeviceOf("external-archive", sim.Net10GbE),
		marks:    make(map[string][]int64),
		archived: make(map[string]int64),
	}
}

// RunOnce archives every topic whose unarchived volume passed its
// threshold.
func (a *Archiver) RunOnce() ([]ArchiveResult, time.Duration, error) {
	var out []ArchiveResult
	var total time.Duration
	for _, name := range a.conv.svc.Topics() {
		cfg, err := a.conv.svc.Topic(name)
		if err != nil || !cfg.Archive.Enabled {
			continue
		}
		res, cost, err := a.archiveTopic(name, cfg)
		total += cost
		if err != nil {
			return out, total, err
		}
		if res.Messages > 0 {
			out = append(out, res)
		}
	}
	return out, total, nil
}

func (a *Archiver) archiveTopic(name string, cfg streamsvc.TopicConfig) (ArchiveResult, time.Duration, error) {
	streams, err := a.conv.svc.Streams(name)
	if err != nil {
		return ArchiveResult{}, 0, err
	}
	a.mu.Lock()
	marks := a.marks[name]
	if marks == nil {
		marks = make([]int64, len(streams))
		a.marks[name] = marks
	}
	a.mu.Unlock()

	// Volume check: unarchived bytes across the topic's streams.
	var pendingBytes int64
	for _, o := range streams {
		pendingBytes += o.AppendedBytes()
	}
	a.mu.Lock()
	pendingBytes -= a.archived[name]
	a.mu.Unlock()
	if pendingBytes < cfg.Archive.ArchiveBytes {
		return ArchiveResult{Topic: name}, 0, nil
	}

	res := ArchiveResult{Topic: name, External: cfg.Archive.ExternalURL != ""}
	var cost time.Duration
	var w *colfile.Writer // the columnar archive, encoded as the records arrive
	if cfg.Archive.RowToCol {
		w = colfile.NewWriter(colfile.MustSchema("key:string", "value:string", "offset:int64"), 0)
		defer w.Recycle() // the archive keeps only the file's size
	}
	var buf []streamobj.Record // one read buffer for every slice
	for i, o := range streams {
		if _, err := o.Flush(); err != nil {
			return res, cost, err
		}
		off := marks[i]
		for off < o.End() {
			recs, rc, err := o.ReadAppend(buf[:0], off, streamobj.ReadCtrl{MaxRecords: streamobj.SliceRecords})
			buf = recs
			if err != nil {
				return res, cost, err
			}
			cost += rc
			if len(recs) == 0 {
				break
			}
			for _, r := range recs {
				res.Messages++
				res.RawBytes += int64(len(r.Key) + len(r.Value))
				if w != nil {
					row := colfile.Row{colfile.StringValue(string(r.Key)), colfile.StringValue(string(r.Value)), colfile.IntValue(r.Offset)}
					if err := w.Append(row); err != nil {
						return res, cost, err
					}
				}
			}
			off = recs[len(recs)-1].Offset + 1
		}
		marks[i] = off
	}

	// Land the archive: columnar re-encode shrinks it (EC+Col-store of
	// Figure 14-d); otherwise raw bytes move as-is.
	archivedBytes := res.RawBytes
	if w != nil && res.Messages > 0 {
		blob, err := w.Finish()
		if err != nil {
			return res, cost, err
		}
		archivedBytes = int64(len(blob))
	}
	res.ArchivedBytes = archivedBytes
	if res.External {
		cost += a.extDev.Write(archivedBytes)
	} else {
		a.tiers.AddArchived(archivedBytes)
	}

	// Archived stream data is reclaimed from the hot tier, but never
	// what the topic's converter has yet to read.
	through := marks
	if cfg.Convert.Enabled {
		through = a.conv.converted(name, marks)
	}
	for i, o := range streams {
		freed, err := o.ReclaimThrough(through[i])
		if err != nil {
			return res, cost, err
		}
		res.Freed += freed
	}
	a.mu.Lock()
	a.archived[name] += res.RawBytes
	a.mu.Unlock()
	return res, cost, nil
}
