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
	"sync"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/lakehouse"
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
// cost.
func (c *Converter) RunOnce() ([]Result, time.Duration, error) {
	var results []Result
	var total time.Duration
	for _, name := range c.svc.Topics() {
		cfg, err := c.svc.Topic(name)
		if err != nil || !cfg.Convert.Enabled {
			continue
		}
		res, cost, err := c.convertTopic(name, cfg)
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
// by flush-on-shutdown and tests).
func (c *Converter) ForceTopic(name string) (Result, time.Duration, error) {
	cfg, err := c.svc.Topic(name)
	if err != nil {
		return Result{}, 0, err
	}
	if !cfg.Convert.Enabled {
		return Result{}, 0, fmt.Errorf("convert: topic %s has conversion disabled", name)
	}
	return c.doConvert(name, cfg)
}

func (c *Converter) convertTopic(name string, cfg streamsvc.TopicConfig) (Result, time.Duration, error) {
	streams, err := c.svc.Streams(name)
	if err != nil {
		return Result{}, 0, err
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
	if pending == 0 {
		return Result{Topic: name}, 0, nil
	}
	if pending < cfg.Convert.SplitOffset && elapsed < cfg.Convert.SplitTime {
		return Result{Topic: name}, 0, nil
	}
	return c.doConvert(name, cfg)
}

func (c *Converter) doConvert(name string, cfg streamsvc.TopicConfig) (Result, time.Duration, error) {
	streams, err := c.svc.Streams(name)
	if err != nil {
		return Result{}, 0, err
	}
	c.mu.Lock()
	st := c.state[name]
	if st == nil {
		st = &topicState{watermarks: make([]int64, len(streams)), lastRun: c.clock.Now()}
		c.state[name] = st
	}
	c.mu.Unlock()

	tbl, cost, err := c.table(cfg)
	if err != nil {
		return Result{}, cost, err
	}

	res := Result{Topic: name}
	byPartition := map[string][]colfile.Row{}
	newMarks := make([]int64, len(streams))
	var buf []streamobj.Record // one read buffer for every slice
	for i, o := range streams {
		// Drain the open buffer so conversion sees everything.
		if _, err := o.Flush(); err != nil {
			return res, cost, err
		}
		off := st.watermarks[i]
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
				var row colfile.Row
				if cfg.Convert.Transform != nil {
					var ok bool
					row, ok = cfg.Convert.Transform(r.Key, r.Value)
					if !ok {
						res.Malformed++
						continue
					}
				} else {
					var derr error
					row, derr = DecodeRow(r.Value)
					if derr != nil {
						res.Malformed++
						continue
					}
				}
				if len(row) != cfg.Convert.TableSchema.NumFields() {
					res.Malformed++
					continue
				}
				p := tbl.PartitionFor(row)
				byPartition[p] = append(byPartition[p], row)
				res.Messages++
			}
			off = recs[len(recs)-1].Offset + 1
		}
		newMarks[i] = off
	}
	if res.Messages > 0 {
		x, err := tbl.Begin()
		if err != nil {
			return res, cost, err
		}
		files, err := x.WritePartitions(byPartition)
		res.Files += len(files)
		if err != nil {
			return res, cost, err
		}
		_, err = x.Commit()
		for errors.Is(err, tableobj.ErrConflict) {
			_, err = x.Retry()
		}
		if err != nil {
			return res, cost, err
		}
		cost += x.Cost()
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
			res.FreedLog += freed
		}
	}
	return res, cost, nil
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
