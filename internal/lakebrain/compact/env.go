package compact

import (
	"strconv"
	"time"

	"streamlake/internal/obs"
	"streamlake/internal/sim"
	"streamlake/internal/tableobj"
)

// Env is the compaction training/evaluation environment: partitions
// continuously ingest small files; compaction merges them binpack-style
// toward the target file size, consuming compute and racing ingestion
// commits (a concurrent ingest commit fails the compaction, the negative
// path of the paper's reward).
type Env struct {
	clock          *sim.Clock
	rng            *sim.RNG
	BlockSize      int64
	TargetFileSize int64
	IngestRate     float64 // small files per second per partition
	QueryRate      float64
	SmallFileSize  int64
	ConflictProb   float64 // chance an active ingest kills a compaction

	parts []*envPartition
}

type envPartition struct {
	files        []int64
	accessFreq   float64
	lastAccess   time.Duration
	recentIngest int // files that arrived in the last tick
}

// NewEnv builds an environment with n partitions.
func NewEnv(clock *sim.Clock, n int, seed uint64) *Env {
	e := &Env{
		clock:          clock,
		rng:            sim.NewRNG(seed),
		BlockSize:      4 << 20,
		TargetFileSize: 64 << 20,
		IngestRate:     10,
		QueryRate:      5,
		SmallFileSize:  2 << 20,
		// Probability a compaction loses the commit race at full
		// ingestion activity.
		ConflictProb: 0.9,
	}
	for i := 0; i < n; i++ {
		e.parts = append(e.parts, &envPartition{
			accessFreq: 0.2 + e.rng.Float64(),
		})
	}
	return e
}

// Partitions returns the partition count.
func (e *Env) Partitions() int { return len(e.parts) }

// GlobalUtil computes the environment-wide block utilization.
func (e *Env) GlobalUtil() float64 {
	var all []int64
	for _, p := range e.parts {
		all = append(all, p.files...)
	}
	return BlockUtilization(all, e.BlockSize)
}

// StateOf builds the RL state for partition i.
func (e *Env) StateOf(i int) State {
	p := e.parts[i]
	recency := float64(e.clock.Now()-p.lastAccess) / float64(time.Hour+1)
	return State{
		TargetFileSize: e.TargetFileSize,
		IngestRate:     e.IngestRate,
		QueryRate:      e.QueryRate,
		GlobalUtil:     e.GlobalUtil(),
		PartFiles:      len(p.files),
		PartUtil:       BlockUtilization(p.files, e.BlockSize),
		PartAccessFreq: p.accessFreq,
		PartRecency:    recency,
	}
}

// Ingest advances the environment by dt: each partition receives
// ingestRate*dt small files (stochastically rounded).
func (e *Env) Ingest(dt time.Duration) {
	expected := e.IngestRate * dt.Seconds()
	for _, p := range e.parts {
		n := int(expected)
		if e.rng.Float64() < expected-float64(n) {
			n++
		}
		p.recentIngest = n
		for j := 0; j < n; j++ {
			size := e.SmallFileSize/2 + e.rng.Int63n(e.SmallFileSize)
			p.files = append(p.files, size)
		}
		if e.rng.Float64() < p.accessFreq*dt.Seconds() {
			p.lastAccess = e.clock.Now()
		}
	}
	e.clock.Advance(dt)
}

// StepResult reports one compaction attempt.
type StepResult struct {
	Attempted  bool
	Success    bool
	UtilBefore float64
	UtilAfter  float64
	Reward     float64
	Merged     int
}

// Compact attempts to compact partition i, returning the outcome and
// the paper-formula reward.
func (e *Env) Compact(i int) StepResult {
	p := e.parts[i]
	before := BlockUtilization(p.files, e.BlockSize)
	plan := BinpackPlan(p.files, e.TargetFileSize)
	if len(plan) == 0 {
		return StepResult{Attempted: false, UtilBefore: before, UtilAfter: before}
	}
	// Expected post-merge utilization, for the failure reward.
	expectedAfter := e.utilAfterPlan(p.files, plan)
	expectedImprovement := expectedAfter - before
	// Concurrent ingest commits conflict with the compaction commit:
	// the busier the partition's ingestion right now, the likelier the
	// compaction loses the commit race — the state-dependent failure
	// mode the RL agent learns to sidestep.
	activity := float64(p.recentIngest) / 20
	if activity > 1 {
		activity = 1
	}
	ingestActive := e.rng.Float64() < e.ConflictProb*activity
	if ingestActive {
		r := Reward(false, before, before, expectedImprovement)
		return StepResult{Attempted: true, Success: false, UtilBefore: before, UtilAfter: before, Reward: r}
	}
	merged := e.applyPlan(p, plan)
	after := BlockUtilization(p.files, e.BlockSize)
	return StepResult{
		Attempted: true, Success: true,
		UtilBefore: before, UtilAfter: after,
		Reward: Reward(true, before, after, expectedImprovement),
		Merged: merged,
	}
}

// utilAfterPlan is the block utilization files would have after plan.
func (e *Env) utilAfterPlan(files []int64, plan [][]int) float64 {
	p := &envPartition{files: files}
	e.applyPlan(p, plan)
	return BlockUtilization(p.files, e.BlockSize)
}

func (e *Env) applyPlan(p *envPartition, plan [][]int) int {
	inPlan := map[int]bool{}
	var merged []int64
	for _, bin := range plan {
		var sum int64
		for _, idx := range bin {
			inPlan[idx] = true
			sum += p.files[idx]
		}
		merged = append(merged, sum)
	}
	var kept []int64
	for i, f := range p.files {
		if !inPlan[i] {
			kept = append(kept, f)
		}
	}
	p.files = append(kept, merged...)
	return len(inPlan) // the bins are disjoint
}

// CycleIngestRate sets the environment's ingest rate following a
// high/low duty cycle — the varying file ingestion speed of the paper's
// block-utilization experiment.
func (e *Env) CycleIngestRate(round int) {
	if round%16 < 12 {
		e.IngestRate = 20 // ingestion storm: compactions likely conflict
	} else {
		e.IngestRate = 1 // calm window: compactions succeed
	}
}

// TrainAuto trains a QLearner on the environment for the given number of
// decision rounds (with a cycling ingest rate and decaying exploration)
// and returns it with exploration turned off.
func TrainAuto(env *Env, rounds int, seed uint64) *QLearner {
	q := NewQLearner(seed)
	for r := 0; r < rounds; r++ {
		// Decay exploration from 0.5 to 0.05 across training.
		q.SetEpsilon(0.5 - 0.45*float64(r)/float64(rounds))
		env.CycleIngestRate(r)
		env.Ingest(5 * time.Second)
		for i := 0; i < env.Partitions(); i++ {
			s := env.StateOf(i)
			act := q.Decide(s)
			var reward float64
			if act {
				res := env.Compact(i)
				reward = res.Reward
			} else {
				// Declining to compact: negative pressure proportional
				// to how badly the partition's utilization is rotting.
				reward = -0.25 * (1 - s.PartUtil)
			}
			q.Observe(s, act, reward, env.StateOf(i), false)
		}
		if r%32 == 31 {
			q.Train(1)
		}
	}
	q.SetEpsilon(0)
	return q
}

// CompactPartition merges a real table partition's small files binpack-
// style in one transaction: each bin's files are rewritten as one file
// and the inputs removed, planned on the transaction's base: a lost race
// is re-planned (tableobj.Table.Write), and a failure withdraws what was
// merged. Env.ConflictProb still models the paper's Iceberg-style
// failure for the RL reward. It returns how many files were merged away
// and the modelled I/O cost.
func CompactPartition(tbl *tableobj.Table, partition string, targetFileSize int64) (int, time.Duration, error) {
	return CompactPartitionSpan(tbl, partition, targetFileSize, nil)
}

// CompactPartitionSpan is CompactPartition recording under sp, the
// caller's lakebrain.compact span: the files merged and the bins, a
// tableobj.merge child per bin (Txn.MergeFiles) and the commit's
// tableobj.commit. The caller ends sp with the returned cost. A nil sp
// traces nothing.
func CompactPartitionSpan(tbl *tableobj.Table, partition string, targetFileSize int64, sp *obs.Span) (merged int, cost time.Duration, err error) {
	_, cost, err = tbl.Write(sp, func(x *tableobj.Txn) error {
		all, err := x.BaseFiles(sp)
		var files []tableobj.DataFile
		var sizes []int64
		for _, f := range all {
			if f.Partition == partition {
				files, sizes = append(files, f), append(sizes, f.Bytes)
			}
		}
		plan := BinpackPlan(sizes, targetFileSize)
		merged = 0
		for k := 0; err == nil && k < len(plan); k++ {
			bin := make([]tableobj.DataFile, len(plan[k]))
			for j, i := range plan[k] {
				bin[j] = files[i]
			}
			merged += len(bin)
			_, err = x.MergeFiles(bin, sp)
		}
		sp.SetAttr("files", strconv.Itoa(merged))
		sp.SetAttr("bins", strconv.Itoa(len(plan)))
		return err
	})
	if err != nil {
		merged = 0
	}
	return merged, cost, err
}
