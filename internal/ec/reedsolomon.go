package ec

import (
	"errors"
	"fmt"
	"sync"
)

// Codec is a systematic Reed–Solomon coder with k data shards and m parity
// shards: any k of the k+m shards reconstruct the original data, so the
// coded stripe tolerates m erasures at a storage overhead of (k+m)/k. The
// paper's EC configuration with FT (fault tolerance) = m maps directly to
// a Codec with that m. A Codec is immutable and safe for concurrent use.
type Codec struct {
	k, m   int
	matrix [][]byte // (k+m) x k encoding matrix; top k rows are identity
	enc    *kernel  // the m Cauchy rows, compiled
}

// ErrTooFewShards is returned by Reconstruct when fewer than k shards are
// present.
var ErrTooFewShards = errors.New("ec: too few shards to reconstruct")

// sharedTableBudget bounds the table bytes New keeps alive for sharing.
// A codec's matrix and tables depend on (k, m) only, so every log of one
// redundancy policy can use one instance — but the pair arrives from
// clients (TopicConfig), so the memo must not grow with what they send.
// EC(4,2) holds 4 KiB, EC(10,4) 12 KiB; a code too wide to fit what is
// left of the budget is built unshared.
const sharedTableBudget = 1 << 20

var shared = struct {
	sync.Mutex
	codecs map[[2]int]*Codec
	bytes  int
}{codecs: make(map[[2]int]*Codec)}

// New returns the codec with k data and m parity shards. 1 <= k, 0 <= m,
// and k+m <= 255 (the field size bounds the stripe width). Calls with the
// same (k, m) return the same instance while sharedTableBudget lasts.
func New(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("ec: invalid parameters k=%d m=%d", k, m)
	}
	key := [2]int{k, m}
	shared.Lock()
	c := shared.codecs[key]
	shared.Unlock()
	if c != nil {
		return c, nil
	}
	matrix := buildMatrix(k, m)
	c = &Codec{k: k, m: m, matrix: matrix, enc: newKernel(matrix[k:], k)}
	shared.Lock()
	defer shared.Unlock()
	if prev := shared.codecs[key]; prev != nil {
		return prev, nil
	}
	if n := c.enc.tableBytes(); shared.bytes+n <= sharedTableBudget {
		shared.codecs[key] = c
		shared.bytes += n
	}
	return c, nil
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
// copied; the parity shards are slices of one allocation).
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
	carve(shards[c.k:], size)
	c.enc.apply(data, shards[c.k:])
	return shards, nil
}

// zeroBlock is what a column lying past the end of the data reads in
// EncodeParity. Never written.
var zeroBlock [blockLen]byte

// EncodeParity computes the parity of Encode(Split(data)) one kernel
// block (blockLen positions) at a time and hands each block's m parity
// rows to emit, in order; the rows are valid only during the call. Its
// scratch is m+1 blocks whatever len(data) is: the parity rows and one
// staging block for the ragged column. Columns wholly inside data are
// read in place, and columns past its end read a shared zero block.
func (c *Codec) EncodeParity(data []byte, emit func(parity [][]byte)) {
	size := max((len(data)+c.k-1)/c.k, 1)
	bl := min(size, blockLen)
	scratch := make([]byte, (c.m+1)*bl)
	ragged := scratch[c.m*bl:]
	in, parity := make([][]byte, c.k), make([][]byte, c.m)
	for off := 0; off < size; off += bl {
		n := min(bl, size-off)
		for i := range in {
			switch start := i*size + off; {
			case start+n <= len(data):
				in[i] = data[start : start+n]
			case start < len(data):
				// The one block where data runs out: staged once per
				// call, so the fresh scratch is still zero past it.
				in[i] = ragged[:n]
				copy(in[i], data[start:])
			default:
				in[i] = zeroBlock[:n]
			}
		}
		for p := range parity {
			parity[p] = scratch[p*bl : p*bl+n]
		}
		c.enc.apply(in, parity)
		emit(parity)
	}
}

// carve points every entry of shards at its own size-byte slice of one
// fresh allocation.
func carve(shards [][]byte, size int) {
	buf := make([]byte, len(shards)*size)
	for i := range shards {
		shards[i], buf = buf[:size:size], buf[size:]
	}
}

// Reconstruct fills in the missing (nil) shards of a stripe in place.
// shards must have length k+m; at least k entries must be non-nil and all
// non-nil entries must share one length.
func (c *Codec) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("ec: Reconstruct needs %d shards, got %d", c.k+c.m, len(shards))
	}
	size := -1
	var missing []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return errors.New("ec: inconsistent shard sizes")
		}
	}
	if len(missing) > c.m {
		return ErrTooFewShards
	}
	if len(missing) == 0 {
		return nil
	}
	// The first k surviving shards are the kernel's inputs. Shard i of the
	// stripe is matrix[i]·data, and data is inv·avail where inv inverts
	// the survivors' matrix rows, so every missing shard, data or parity,
	// is the row matrix[i]·inv applied to avail: one coefficient block,
	// one pass. With all data present inv is the identity and is skipped.
	avail := make([][]byte, 0, c.k)
	rows := make([][]byte, 0, c.k)
	for i := 0; len(avail) < c.k; i++ {
		if shards[i] != nil {
			avail = append(avail, shards[i])
			rows = append(rows, c.matrix[i])
		}
	}
	coef := make([][]byte, len(missing))
	if missing[0] >= c.k {
		for p, i := range missing {
			coef[p] = c.matrix[i]
		}
	} else {
		inv, err := invertMatrix(rows)
		if err != nil {
			return err
		}
		for p, i := range missing {
			coef[p] = mulRowMatrix(c.matrix[i], inv)
		}
	}
	out := make([][]byte, len(missing))
	carve(out, size)
	newKernel(coef, c.k).apply(avail, out)
	for p, i := range missing {
		shards[i] = out[p]
	}
	return nil
}

// mulRowMatrix returns the row vector row·m over GF(256).
func mulRowMatrix(row []byte, m [][]byte) []byte {
	out := make([]byte, len(m[0]))
	for l, r := range row {
		if r == 0 {
			continue
		}
		for j, v := range m[l] {
			out[j] ^= gfMul(r, v)
		}
	}
	return out
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

// Split views data as k equal shards of ceil(len/k) bytes (one byte for
// empty data). Shards that lie wholly inside data alias it, as Encode's
// stripe aliases its inputs; only the ragged last one is copied into a
// zero-padded buffer of its own, and the shards past the end of data all
// share one zero buffer. Callers must treat the shards as read-only. The
// original length must be carried out of band (Join takes it back).
func (c *Codec) Split(data []byte) [][]byte {
	size := max((len(data)+c.k-1)/c.k, 1)
	shards := make([][]byte, c.k)
	var zero []byte
	for i := range shards {
		start := i * size
		switch end := start + size; {
		case end <= len(data):
			shards[i] = data[start:end:end]
		case start < len(data):
			s := make([]byte, size)
			copy(s, data[start:])
			shards[i] = s
		default:
			if zero == nil {
				zero = make([]byte, size)
			}
			shards[i] = zero
		}
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
