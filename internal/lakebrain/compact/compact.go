// Package compact implements LakeBrain's automatic compaction
// (Section VI-A, Figure 10): a reinforcement-learning agent that decides,
// per table partition and system state, whether to compact small files.
// The state concatenates global features (target file size, ingestion
// speed, query pattern, global block utilization) with partition
// features (access frequency/recency, partition block utilization); the
// reward is the block-utilization improvement on success and
// -(1 - expected improvement) on a commit-conflict failure; the merge
// itself uses the binpack strategy. The paper's Default-compaction
// baseline — a static 30-second interval — is also provided.
package compact

import (
	"math"
	"sort"
	"time"

	"streamlake/internal/sim"
)

// BlockUtilization is the paper's formula: sum(f_i) / (K * sum(ceil(f_i/K)))
// for file sizes f_i and block size K — how much of the allocated block
// space the files actually fill.
func BlockUtilization(fileSizes []int64, blockSize int64) float64 {
	if len(fileSizes) == 0 || blockSize <= 0 {
		return 1
	}
	var used, allocated int64
	for _, f := range fileSizes {
		if f <= 0 {
			continue
		}
		used += f
		allocated += blockSize * ((f + blockSize - 1) / blockSize)
	}
	if allocated == 0 {
		return 1
	}
	return float64(used) / float64(allocated)
}

// BinpackPlan groups files into compaction outputs of at most targetSize
// bytes using first-fit decreasing — the binpack strategy the paper
// cites from Iceberg. Groups with a single file are dropped (nothing to
// merge).
func BinpackPlan(fileSizes []int64, targetSize int64) [][]int {
	type item struct {
		idx  int
		size int64
	}
	items := make([]item, 0, len(fileSizes))
	for i, s := range fileSizes {
		if s < targetSize { // already-full files are left alone
			items = append(items, item{i, s})
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].size > items[b].size })
	var bins [][]int
	var binSizes []int64
	for _, it := range items {
		placed := false
		for b := range bins {
			if binSizes[b]+it.size <= targetSize {
				bins[b] = append(bins[b], it.idx)
				binSizes[b] += it.size
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, []int{it.idx})
			binSizes = append(binSizes, it.size)
		}
	}
	out := bins[:0]
	for _, b := range bins {
		if len(b) > 1 {
			sort.Ints(b)
			out = append(out, b)
		}
	}
	return out
}

// State is the RL state: the two feature sets of Section VI-A,
// concatenated as the policy input.
type State struct {
	// Global features.
	TargetFileSize int64
	IngestRate     float64 // small files arriving per second
	QueryRate      float64 // concurrent queries per second
	GlobalUtil     float64 // global block utilization
	// Partition features.
	PartFiles      int     // number of files in the partition
	PartUtil       float64 // partition block utilization
	PartAccessFreq float64 // data access frequency
	PartRecency    float64 // normalized time since last access (ordering)
}

// features returns the normalized feature vector (with a bias term).
func (s State) features() []float64 {
	return []float64{
		1, // bias
		math.Min(float64(s.PartFiles)/64, 2),
		s.PartUtil,
		s.GlobalUtil,
		math.Min(s.IngestRate/20, 2),
		math.Min(s.QueryRate/20, 2),
		math.Min(s.PartAccessFreq, 2),
		math.Min(s.PartRecency, 2),
	}
}

// FeatureDim is the policy input width.
const FeatureDim = 8

// experience is one replay-buffer entry.
type experience struct {
	state  []float64
	action int
	reward float64
	next   []float64
	done   bool
}

// QLearner is a linear-approximation Q-learner with an experience replay
// buffer — the reproduction's stand-in for the paper's DQN policy
// network (the RL formulation, not the network depth, is the
// contribution being reproduced; see DESIGN.md).
type QLearner struct {
	weights [2][]float64 // Q(s, a) = w_a · φ(s)
	alpha   float64      // learning rate
	gamma   float64      // discount
	epsilon float64      // exploration
	rng     *sim.RNG

	replay    []experience
	replayCap int
}

// NewQLearner builds a learner with standard hyperparameters.
func NewQLearner(seed uint64) *QLearner {
	q := &QLearner{
		alpha:     0.05,
		gamma:     0.6,
		epsilon:   0.2,
		rng:       sim.NewRNG(seed),
		replayCap: 4096,
	}
	for a := 0; a < 2; a++ {
		q.weights[a] = make([]float64, FeatureDim)
	}
	return q
}

func (q *QLearner) qValue(phi []float64, a int) float64 {
	var v float64
	for i, w := range q.weights[a] {
		v += w * phi[i]
	}
	return v
}

// Decide returns the ε-greedy action for the state: true = compact.
func (q *QLearner) Decide(s State) bool {
	phi := s.features()
	if q.rng.Float64() < q.epsilon {
		return q.rng.Intn(2) == 1
	}
	return q.qValue(phi, 1) > q.qValue(phi, 0)
}

// Exploit returns the greedy action (inference after training).
func (q *QLearner) Exploit(s State) bool {
	phi := s.features()
	return q.qValue(phi, 1) > q.qValue(phi, 0)
}

// Observe stores one transition in the replay buffer and performs one
// online TD(0) update.
func (q *QLearner) Observe(s State, action bool, reward float64, next State, done bool) {
	a := 0
	if action {
		a = 1
	}
	e := experience{state: s.features(), action: a, reward: reward, next: next.features(), done: done}
	if len(q.replay) < q.replayCap {
		q.replay = append(q.replay, e)
	} else {
		q.replay[q.rng.Intn(q.replayCap)] = e
	}
	q.update(e)
}

func (q *QLearner) update(e experience) {
	target := e.reward
	if !e.done {
		target += q.gamma * math.Max(q.qValue(e.next, 0), q.qValue(e.next, 1))
	}
	pred := q.qValue(e.state, e.action)
	delta := target - pred
	// Clip to keep the linear model stable under bursty rewards.
	if delta > 5 {
		delta = 5
	} else if delta < -5 {
		delta = -5
	}
	for i := range q.weights[e.action] {
		q.weights[e.action][i] += q.alpha * delta * e.state[i]
	}
}

// Train replays the buffer the given number of epochs (the experience
// reuse of Figure 10's training loop).
func (q *QLearner) Train(epochs int) {
	for e := 0; e < epochs; e++ {
		for _, i := range q.rng.Perm(len(q.replay)) {
			q.update(q.replay[i])
		}
	}
}

// SetEpsilon adjusts exploration (set to 0 for inference).
func (q *QLearner) SetEpsilon(eps float64) { q.epsilon = eps }

// Reward computes the paper's reward: the utilization improvement on
// success, or -(1 - expectedImprovement) on failure.
func Reward(success bool, utilBefore, utilAfter, expectedImprovement float64) float64 {
	if success {
		return utilAfter - utilBefore
	}
	return -(1 - expectedImprovement)
}

// Default is the paper's Default-compaction baseline: compact on a fixed
// interval (30 s in Section VII-E) regardless of state.
type Default struct {
	Interval time.Duration
	last     map[string]time.Duration
	key      string
}

// NewDefault builds the static strategy (zero interval = 30 s).
func NewDefault(interval time.Duration) *Default {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Default{Interval: interval, last: map[string]time.Duration{}}
}

// ShouldCompact fires whenever the interval elapsed, with at least two
// files present.
func (d *Default) ShouldCompact(now time.Duration, s State) bool {
	if s.PartFiles < 2 {
		return false
	}
	if now-d.last[d.key] >= d.Interval {
		d.last[d.key] = now
		return true
	}
	return false
}

// ForPartition keys the interval tracking per partition.
func (d *Default) ForPartition(p string) *Default {
	return &Default{Interval: d.Interval, last: d.last, key: p}
}

// Auto is the learned strategy: a trained QLearner.
type Auto struct {
	Learner *QLearner
}

// ShouldCompact consults the learned policy.
func (a *Auto) ShouldCompact(now time.Duration, s State) bool {
	if s.PartFiles < 2 {
		return false
	}
	return a.Learner.Exploit(s)
}
