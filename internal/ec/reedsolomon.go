package ec

import (
	"errors"
	"fmt"
)

// Codec is a systematic Reed–Solomon coder with k data shards and m parity
// shards: any k of the k+m shards reconstruct the original data, so the
// coded stripe tolerates m erasures at a storage overhead of (k+m)/k. The
// paper's EC configuration with FT (fault tolerance) = m maps directly to
// a Codec with that m.
type Codec struct {
	k, m   int
	matrix [][]byte // (k+m) x k encoding matrix; top k rows are identity
}

// ErrTooFewShards is returned by Reconstruct when fewer than k shards are
// present.
var ErrTooFewShards = errors.New("ec: too few shards to reconstruct")

// New creates a codec with k data and m parity shards. 1 <= k, 0 <= m, and
// k+m <= 255 (the field size bounds the stripe width).
func New(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("ec: invalid parameters k=%d m=%d", k, m)
	}
	return &Codec{k: k, m: m, matrix: buildMatrix(k, m)}, nil
}

// Overhead returns the storage multiplier (k+m)/k of the code.
func (c *Codec) Overhead() float64 { return float64(c.k+c.m) / float64(c.k) }

// buildMatrix builds a systematic encoding matrix: identity on top of a
// Cauchy matrix. Cauchy guarantees every k x k submatrix is invertible,
// which is the property reconstruction relies on.
func buildMatrix(k, m int) [][]byte {
	mat := make([][]byte, k+m)
	for i := 0; i < k; i++ {
		row := make([]byte, k)
		row[i] = 1
		mat[i] = row
	}
	// Cauchy: rows indexed by x_i = k+i, columns by y_j = j; all distinct
	// in GF(256) for k+m <= 255.
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = gfInv(byte(k+i) ^ byte(j))
		}
		mat[k+i] = row
	}
	return mat
}

// Encode computes the m parity shards for k equal-length data shards,
// returning the full stripe of k+m shards (data shards are aliased, not
// copied).
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("ec: Encode needs %d data shards, got %d", c.k, len(data))
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return nil, fmt.Errorf("ec: shard %d has size %d, want %d", i, len(d), size)
		}
	}
	shards := make([][]byte, c.k+c.m)
	copy(shards, data)
	for i := 0; i < c.m; i++ {
		p := make([]byte, size)
		row := c.matrix[c.k+i]
		for j := 0; j < c.k; j++ {
			mulSliceAdd(row[j], data[j], p)
		}
		shards[c.k+i] = p
	}
	return shards, nil
}

// Reconstruct fills in the missing (nil) shards of a stripe in place.
// shards must have length k+m; at least k entries must be non-nil and all
// non-nil entries must share one length.
func (c *Codec) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("ec: Reconstruct needs %d shards, got %d", c.k+c.m, len(shards))
	}
	size := -1
	present := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return errors.New("ec: inconsistent shard sizes")
		}
	}
	if present < c.k {
		return ErrTooFewShards
	}
	missingData := false
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if missingData {
		if err := c.reconstructData(shards, size); err != nil {
			return err
		}
	}
	// Recompute any missing parity from (now complete) data.
	for i := 0; i < c.m; i++ {
		if shards[c.k+i] != nil {
			continue
		}
		p := make([]byte, size)
		row := c.matrix[c.k+i]
		for j := 0; j < c.k; j++ {
			mulSliceAdd(row[j], shards[j], p)
		}
		shards[c.k+i] = p
	}
	return nil
}

// reconstructData solves for the missing data shards using the first k
// available shards' matrix rows.
func (c *Codec) reconstructData(shards [][]byte, size int) error {
	rows := make([][]byte, 0, c.k)
	avail := make([][]byte, 0, c.k)
	for i := 0; i < c.k+c.m && len(rows) < c.k; i++ {
		if shards[i] != nil {
			rows = append(rows, c.matrix[i])
			avail = append(avail, shards[i])
		}
	}
	inv, err := invertMatrix(rows)
	if err != nil {
		return err
	}
	for i := 0; i < c.k; i++ {
		if shards[i] != nil {
			continue
		}
		d := make([]byte, size)
		for j := 0; j < c.k; j++ {
			mulSliceAdd(inv[i][j], avail[j], d)
		}
		shards[i] = d
	}
	return nil
}

// invertMatrix inverts a k x k matrix over GF(256) by Gauss–Jordan
// elimination.
func invertMatrix(m [][]byte) ([][]byte, error) {
	k := len(m)
	// Augmented [m | I].
	aug := make([][]byte, k)
	for i := 0; i < k; i++ {
		aug[i] = make([]byte, 2*k)
		copy(aug[i], m[i])
		aug[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < k; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("ec: singular matrix")
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Normalize pivot row.
		pv := aug[col][col]
		if pv != 1 {
			inv := gfInv(pv)
			for j := 0; j < 2*k; j++ {
				aug[col][j] = gfMul(aug[col][j], inv)
			}
		}
		// Eliminate the column from all other rows.
		for r := 0; r < k; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			f := aug[r][col]
			for j := 0; j < 2*k; j++ {
				aug[r][j] ^= gfMul(f, aug[col][j])
			}
		}
	}
	out := make([][]byte, k)
	for i := 0; i < k; i++ {
		out[i] = aug[i][k:]
	}
	return out, nil
}

// Split pads data to a multiple of k and splits it into k equal shards.
// The original length must be carried out of band (Join takes it back).
func (c *Codec) Split(data []byte) [][]byte {
	shardSize := (len(data) + c.k - 1) / c.k
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, c.k)
	for i := 0; i < c.k; i++ {
		s := make([]byte, shardSize)
		start := i * shardSize
		if start < len(data) {
			end := start + shardSize
			if end > len(data) {
				end = len(data)
			}
			copy(s, data[start:end])
		}
		shards[i] = s
	}
	return shards
}

// Join concatenates k data shards and truncates to length n, inverting
// Split.
func (c *Codec) Join(shards [][]byte, n int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, fmt.Errorf("ec: Join needs %d data shards, got %d", c.k, len(shards))
	}
	out := make([]byte, 0, n)
	for i := 0; i < c.k && len(out) < n; i++ {
		if shards[i] == nil {
			return nil, errors.New("ec: Join with missing data shard")
		}
		out = append(out, shards[i]...)
	}
	if len(out) < n {
		return nil, errors.New("ec: joined data shorter than requested length")
	}
	return out[:n], nil
}
