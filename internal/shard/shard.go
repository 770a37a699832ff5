// Package shard implements the distributed hash table of Figure 4-d:
// data slices are distributed evenly over 4096 logical shards, each of
// which manages its storage space through a chain of PLogs.
package shard

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/plog"
	"streamlake/internal/resil"
)

// NumShards is the paper's fixed logical shard count.
const NumShards = 4096

// ID is a logical shard identifier in [0, NumShards).
type ID uint16

// ForKey maps a key to its shard by FNV-1a hash, the even-distribution
// step of Figure 4-d.
func ForKey(key []byte) ID {
	h := fnv.New32a()
	h.Write(key)
	return ID(h.Sum32() % NumShards)
}

// Loc addresses a record inside the shard space: which PLog, where, and
// how long.
type Loc struct {
	Shard  ID
	Log    plog.ID
	Offset int64
	Len    int32
}

// Space manages per-shard storage through chains of PLogs: appends go to
// the shard's open log, rolling to a fresh one when the 128 MB address
// space fills; sealed logs stay readable.
type Space struct {
	mgr *plog.Manager
	red plog.Redundancy

	mu     sync.Mutex
	open   map[ID]*plog.PLog
	chains map[ID][]plog.ID
}

// NewSpace builds a shard space creating PLogs from mgr with the given
// redundancy.
func NewSpace(mgr *plog.Manager, red plog.Redundancy) *Space {
	return &Space{
		mgr:    mgr,
		red:    red,
		open:   make(map[ID]*plog.PLog),
		chains: make(map[ID][]plog.ID),
	}
}

// Append persists data in shard s, rolling the PLog chain as needed, and
// returns the record's location and the modelled persistence latency: a
// batch of one.
func (sp *Space) Append(s ID, data []byte) (Loc, time.Duration, error) {
	locs, cost, err := sp.AppendBatch(s, [][]byte{data}, nil)
	if err != nil {
		return Loc{}, 0, err
	}
	return locs[0], cost, nil
}

// AppendBatch persists several payloads in shard s as one commit: every
// payload keeps its own offset and extent (so reads, checksums, and
// replay are indistinguishable from individual appends) but the whole
// batch costs one device write per placement copy (plog.AppendBatch).
// The append is recorded as a plog.append child of parent, annotated
// with the shard and log it landed in (and the batch size when it
// coalesces); a nil span traces nothing. The chain rolls to a fresh log
// when the open one is full or sealed; a batch too large even for a
// fresh log falls back to payload-at-a-time appends, which can split it
// across the roll. Locs are returned in payload order.
func (sp *Space) AppendBatch(s ID, payloads [][]byte, parent *obs.Span) ([]Loc, time.Duration, error) {
	if len(payloads) == 0 {
		return nil, 0, nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.appendBatchLocked(s, payloads, parent)
}

// rollLocked opens a fresh PLog at the end of shard s's chain.
func (sp *Space) rollLocked(s ID) (*plog.PLog, error) {
	l, err := sp.mgr.Create(sp.red)
	if err != nil {
		return nil, err
	}
	sp.open[s] = l
	sp.chains[s] = append(sp.chains[s], l.ID())
	return l, nil
}

func (sp *Space) appendBatchLocked(s ID, payloads [][]byte, parent *obs.Span) ([]Loc, time.Duration, error) {
	l := sp.open[s]
	if l == nil {
		var err error
		if l, err = sp.rollLocked(s); err != nil {
			return nil, 0, err
		}
	}
	var span *obs.Span
	if parent != nil {
		span = parent.Child("plog.append")
		span.SetAttr("shard", strconv.Itoa(int(s)))
		if len(payloads) > 1 {
			span.SetAttr("batch", strconv.Itoa(len(payloads)))
		}
	}
	offs, cost, err := l.AppendBatch(payloads, span)
	if err == plog.ErrFull || err == plog.ErrSealed {
		l.Seal()
		if l, err = sp.rollLocked(s); err != nil {
			return nil, 0, err
		}
		offs, cost, err = l.AppendBatch(payloads, span)
	}
	if err == plog.ErrFull && len(payloads) > 1 {
		// The batch overflows even a fresh log: coalescing is off the
		// table, so fall back to one batch per payload (splitting across
		// the chain as each log fills). parent is reused so each append
		// traces as its own plog.append child.
		if span != nil {
			span.End(0)
		}
		locs := make([]Loc, len(payloads))
		var total time.Duration
		for i := range payloads {
			one, c, aerr := sp.appendBatchLocked(s, payloads[i:i+1], parent)
			if aerr != nil {
				return nil, total, aerr
			}
			locs[i] = one[0]
			if c > total {
				total = c
			}
		}
		return locs, total, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if span != nil {
		span.SetAttr("log", strconv.FormatInt(int64(l.ID()), 10))
		span.End(cost)
		parent.Advance(cost)
	}
	locs := make([]Loc, len(payloads))
	for i, off := range offs {
		locs[i] = Loc{Shard: s, Log: l.ID(), Offset: off, Len: int32(len(payloads[i]))}
	}
	return locs, cost, nil
}

// Read fetches the record at loc.
func (sp *Space) Read(loc Loc) ([]byte, time.Duration, error) {
	return sp.ReadCtx(loc, nil, nil)
}

// ReadCtx is Read under a resilience context: the deadline check and
// cost charging happen in the PLog (see plog.ReadCtx). The read is
// recorded as a plog.read child of parent, annotated with the log it
// came from, and advances parent's cursor by its cost; a nil span
// traces nothing. With nil rc and parent it is Read.
func (sp *Space) ReadCtx(loc Loc, rc *resil.Ctx, parent *obs.Span) ([]byte, time.Duration, error) {
	l := sp.mgr.Get(loc.Log)
	if l == nil {
		return nil, 0, fmt.Errorf("shard: no PLog %d", loc.Log)
	}
	span := parent.Child("plog.read")
	span.SetAttr("log", strconv.FormatInt(int64(loc.Log), 10))
	data, cost, err := l.ReadCtx(loc.Offset, int64(loc.Len), rc, span)
	span.End(cost)
	parent.Advance(cost)
	return data, cost, err
}

// DestroyLog destroys one PLog in the space, removing it from its
// chain — the reclamation step after stream-to-table conversion has
// drained a sealed log.
func (sp *Space) DestroyLog(id plog.ID) error {
	sp.mu.Lock()
	for s, chain := range sp.chains {
		for i, cid := range chain {
			if cid == id {
				sp.chains[s] = append(chain[:i:i], chain[i+1:]...)
				if sp.open[s] != nil && sp.open[s].ID() == id {
					delete(sp.open, s)
				}
				sp.mu.Unlock()
				return sp.mgr.Destroy(id)
			}
		}
	}
	sp.mu.Unlock()
	return fmt.Errorf("shard: log %d not in any chain", id)
}

// Drop destroys every PLog in shard s's chain (used when a stream object
// is destroyed or its data converted to a table and reclaimed).
func (sp *Space) Drop(s ID) error {
	sp.mu.Lock()
	chain := sp.chains[s]
	delete(sp.chains, s)
	delete(sp.open, s)
	sp.mu.Unlock()
	for _, id := range chain {
		if err := sp.mgr.Destroy(id); err != nil {
			return err
		}
	}
	return nil
}
