// Package convert implements the automatic stream-to-table conversion of
// Section V-B: a background service that applies a topic's table schema
// to accumulated stream messages and writes them as table object records,
// triggered by message count (split_offset) or elapsed time (split_time).
// With delete_msg set, converted stream slices are reclaimed so one copy
// of the data serves both stream and batch processing — the storage
// saving at the heart of Table 1. The reverse conversion (table records
// played back as stream messages) is also provided.
package convert

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
	"streamlake/internal/obs"
	"streamlake/internal/rowcodec"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/tableobj"
)

// EncodeRow serializes a structured row as a stream message value, the
// payload format the converter expects.
func EncodeRow(schema colfile.Schema, row colfile.Row) ([]byte, error) {
	return rowcodec.Encode(schema, []colfile.Row{row})
}

// DecodeRow parses a message value produced by EncodeRow. The row's
// strings share data's bytes: leave data unchanged while they are in use.
func DecodeRow(data []byte) (colfile.Row, error) {
	_, rows, err := rowcodec.Decode(data)
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("convert: message carries %d rows, want 1", len(rows))
	}
	return rows[0], nil
}

// Result reports one topic's conversion outcome.
type Result struct {
	Topic     string
	Messages  int64
	Files     int
	FreedLog  int64 // logical stream bytes reclaimed (delete_msg)
	Malformed int64 // messages that failed schema application
}

// Converter is the background conversion service.
type Converter struct {
	clock *sim.Clock
	svc   *streamsvc.Service
	lh    *lakehouse.Engine

	mu    sync.Mutex
	state map[string]*topicState
}

type topicState struct {
	watermarks []int64
	lastRun    time.Duration
}

// New builds a converter over the streaming service and the lakehouse
// engine. Conversion writes through the engine's handle on each table,
// so converted files are written exactly as inserted ones are.
func New(clock *sim.Clock, svc *streamsvc.Service, lh *lakehouse.Engine) *Converter {
	return &Converter{clock: clock, svc: svc, lh: lh, state: make(map[string]*topicState)}
}

// RunOnce evaluates every convert-enabled topic's trigger and converts
// the ones that fire, returning per-topic results and the total modelled
// cost. Each conversion is a convert child of sp (see ForceTopic); a nil
// sp traces nothing.
func (c *Converter) RunOnce(sp *obs.Span) ([]Result, time.Duration, error) {
	var results []Result
	var total time.Duration
	for _, name := range c.svc.Topics() {
		cfg, err := c.svc.Topic(name)
		if err != nil || !cfg.Convert.Enabled {
			continue
		}
		res, cost, err := c.convertTopic(name, cfg, false, sp)
		total += cost
		if err != nil {
			return results, total, err
		}
		if res.Messages > 0 {
			results = append(results, res)
		}
	}
	return results, total, nil
}

// ForceTopic converts a topic immediately, ignoring the triggers (used
// by flush-on-shutdown and tests). The conversion is a convert child of
// sp {topic messages malformed files}: a streamobj.read per slice read,
// each over its plog.read, a tableobj.write {kind=data} per partition
// file, the tableobj.commit and, with delete_msg, a streamobj.reclaim
// {stream bytes} per stream. A nil sp traces nothing.
func (c *Converter) ForceTopic(name string, sp *obs.Span) (Result, time.Duration, error) {
	cfg, err := c.svc.Topic(name)
	if err != nil {
		return Result{}, 0, err
	}
	if !cfg.Convert.Enabled {
		return Result{}, 0, fmt.Errorf("convert: topic %s has conversion disabled", name)
	}
	return c.convertTopic(name, cfg, true, sp)
}

// convertTopic converts the topic's pending messages if force is set or
// its trigger fires: split_offset messages pending, or split_time passed
// since the last run.
func (c *Converter) convertTopic(name string, cfg streamsvc.TopicConfig, force bool, parent *obs.Span) (res Result, cost time.Duration, err error) {
	res.Topic = name
	streams, err := c.svc.Streams(name)
	if err != nil {
		return res, 0, err
	}
	c.mu.Lock()
	st := c.state[name]
	if st == nil {
		st = &topicState{watermarks: make([]int64, len(streams)), lastRun: c.clock.Now()}
		c.state[name] = st
	}
	var pending int64
	for i, o := range streams {
		pending += o.End() - st.watermarks[i]
	}
	elapsed := c.clock.Now() - st.lastRun
	c.mu.Unlock()
	if !force && (pending == 0 || pending < cfg.Convert.SplitOffset && elapsed < cfg.Convert.SplitTime) {
		return res, 0, nil
	}
	sp := parent.Child("convert")
	defer func() { // a nil sp ignores all of these
		sp.SetAttr("topic", name)
		sp.SetAttr("messages", strconv.FormatInt(res.Messages, 10))
		sp.SetAttr("malformed", strconv.FormatInt(res.Malformed, 10))
		sp.SetAttr("files", strconv.Itoa(res.Files))
		sp.End(cost)
		parent.Advance(cost)
	}()
	tbl, cost, err := c.table(cfg)
	if err != nil {
		return res, cost, err
	}
	sp.Advance(cost)
	sink := tbl.Sink()
	newMarks := make([]int64, len(streams))
	var buf []streamobj.Record // one read buffer for every slice
	for i, o := range streams {
		// Drain the open buffer so conversion sees everything.
		if _, err := o.Flush(); err != nil {
			return res, cost, err
		}
		off := st.watermarks[i]
		for off < o.End() {
			osp := sp.Child("streamobj.read")
			osp.SetAttr("stream", strconv.Itoa(i))
			osp.SetAttr("offset", strconv.FormatInt(off, 10))
			recs, rc, err := o.ReadAppend(buf[:0], off, streamobj.ReadCtrl{MaxRecords: streamobj.SliceRecords, Span: osp})
			buf = recs
			if err != nil {
				return res, cost, err
			}
			osp.SetAttr("records", strconv.Itoa(len(recs)))
			osp.End(rc)
			sp.Advance(rc)
			cost += rc
			if len(recs) == 0 {
				break
			}
			for _, r := range recs {
				row, ok := colfile.Row(nil), false
				if cfg.Convert.Transform != nil {
					row, ok = cfg.Convert.Transform(r.Key, r.Value)
				} else if decoded, derr := DecodeRow(r.Value); derr == nil {
					row, ok = decoded, true
				}
				if !ok || len(row) != cfg.Convert.TableSchema.NumFields() {
					res.Malformed++
					continue
				}
				if err := sink.Append(row); err != nil {
					return res, cost, err
				}
				res.Messages++
			}
			off = recs[len(recs)-1].Offset + 1
		}
		newMarks[i] = off
	}
	if res.Messages > 0 {
		_, wc, err := tbl.Write(sp, func(x *tableobj.Txn) error {
			files, err := sink.Stage(x, sp) // it removes nothing, so Write runs this once
			res.Files = len(files)
			return err
		})
		if err != nil {
			return res, cost, err
		}
		cost += wc
	}
	c.mu.Lock()
	st.watermarks = newMarks
	st.lastRun = c.clock.Now()
	c.mu.Unlock()

	if cfg.Convert.DeleteMsg {
		for i, o := range streams {
			freed, err := o.ReclaimThrough(newMarks[i])
			if err != nil {
				return res, cost, err
			}
			rsp := sp.Child("streamobj.reclaim") // nil, and ignoring its attrs, untraced
			rsp.SetAttr("stream", strconv.Itoa(i))
			rsp.SetAttr("bytes", strconv.FormatInt(freed, 10))
			res.FreedLog += freed
		}
	}
	return res, cost, nil
}

// converted returns, per stream of the topic, the lesser of marks[i] and
// the converter's watermark: 0 for a topic it has not run on yet.
func (c *Converter) converted(name string, marks []int64) []int64 {
	out := make([]int64, len(marks))
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.state[name]; st != nil {
		for i := range out {
			out[i] = min(marks[i], st.watermarks[i])
		}
	}
	return out
}

// table resolves the topic's target table through the engine, creating
// it on first use. A soft-dropped table is an error, not a fresh table.
func (c *Converter) table(cfg streamsvc.TopicConfig) (*tableobj.Table, time.Duration, error) {
	tbl, err := c.lh.Table(cfg.Convert.TableName)
	if !errors.Is(err, tableobj.ErrUnknownTable) {
		return tbl, 0, err
	}
	cost, err := c.lh.CreateTable(tableobj.TableMeta{
		Name:            cfg.Convert.TableName,
		Path:            cfg.Convert.TablePath,
		Schema:          cfg.Convert.TableSchema,
		PartitionColumn: cfg.Convert.PartitionColumn,
	})
	if err != nil {
		return nil, cost, err
	}
	tbl, err = c.lh.Table(cfg.Convert.TableName)
	return tbl, cost, err
}

// Playback performs the reverse conversion (Section V-B): the rows of a
// table snapshot are re-published as stream messages to a topic, for
// data replay. It returns the number of messages produced. Each file is
// decoded whole before any of its rows is sent, so a file that fails to
// decode sends nothing.
func Playback(tbl *tableobj.Table, snap tableobj.Snapshot, producer *streamsvc.Producer, topic string) (int64, time.Duration, error) {
	var n int64
	var cost time.Duration
	schema := tbl.Schema()
	var dec colfile.RowDecoder
	var rows []colfile.Row
	for _, f := range snap.Files {
		r, rc, err := tbl.ReadFile(f)
		if err != nil {
			return n, cost, err
		}
		cost += rc
		dec.Recycle() // the last file's rows are sent
		if rows, err = dec.AppendRows(rows[:0], r); err != nil {
			return n, cost, err
		}
		for _, row := range rows {
			val, err := EncodeRow(schema, row)
			if err != nil {
				return n, cost, err
			}
			key := []byte(row[0].String())
			_, sc, err := producer.Send(topic, key, val)
			if err != nil {
				return n, cost, err
			}
			cost += sc
			n++
		}
	}
	return n, cost, nil
}
