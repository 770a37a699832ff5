package ec

import "crypto/subtle"

// The one place shard bytes are multiplied. A kernel turns a coefficient
// block (rows x cols over GF(2^8)) into fused product tables and applies
// it to cols equal-length input shards, producing rows output shards:
// out[p] = XOR_j coef[p][j]·in[j]. Encode's block is the Cauchy rows;
// Reconstruct's is the rows of the missing shards expressed over the
// shards that survived. Both run mulTile below and nothing else.
//
// A tile covers tileCols input columns and tileRows output rows. Per
// input column it holds a [256]uint32 whose entry v packs the products
// coef[p][j]·v of the tile's rows, one per byte, so a position costs one
// table load and one XOR per input byte and every output row falls out
// of the same accumulator: no branch on the data, no read-back of the
// output. Four by four is what the hardware pays for: four input
// pointers, four output pointers and the table base fit the amd64
// register file, and at one byte store per row the store port keeps pace
// with the eight loads up to four rows (an eight-row tile measured 2x
// slower per pass, so packing eight rows per entry would buy nothing).
// Blocks wider than a tile run the same loop once per tile.
const (
	tileCols = 4
	tileRows = 4
	// blockLen is how many positions one pass covers before moving to the
	// next tile, so the inputs of a block are still in L1 when the next
	// row group reads them. It also sizes the scratch rows, and the
	// blocks EncodeParity streams.
	blockLen = 1024
)

// tileTable is the fused product table of one tile.
type tileTable [tileCols][256]uint32

// kernel is a coefficient block compiled to tiles, row group major.
// Immutable once built, so one kernel serves any number of goroutines.
type kernel struct {
	rows, cols int
	tiles      []tileTable
}

// newKernel compiles coef (rows x cols). Columns past cols in the last
// tile keep all-zero tables and so contribute nothing.
func newKernel(coef [][]byte, cols int) *kernel {
	kn := &kernel{rows: len(coef), cols: cols}
	colGroups := (cols + tileCols - 1) / tileCols
	rowGroups := (kn.rows + tileRows - 1) / tileRows
	kn.tiles = make([]tileTable, rowGroups*colGroups)
	for p, row := range coef {
		shift := 8 * uint(p%tileRows)
		for j, c := range row {
			if c == 0 {
				continue
			}
			t := &kn.tiles[p/tileRows*colGroups+j/tileCols][j%tileCols]
			for v := 1; v < 256; v++ {
				t[v] |= uint32(gfMul(c, byte(v))) << shift
			}
		}
	}
	return kn
}

// tableBytes is the memory the kernel's tables hold.
func (kn *kernel) tableBytes() int { return len(kn.tiles) * (tileCols * 256 * 4) }

// apply computes the kernel's rows output shards from its cols input
// shards. All shards share one length; out is fully overwritten.
func (kn *kernel) apply(in, out [][]byte) {
	if kn.rows == 0 {
		return
	}
	colGroups := (kn.cols + tileCols - 1) / tileCols
	// scratch takes what a tile computes but must not store directly: the
	// rows a short last row group does not have, and, for every column
	// group after the first, partial sums that are XORed into out.
	var scratch [tileRows][blockLen]byte
	var d [tileCols][]byte
	var p [tileRows][]byte
	for off, n := 0, len(out[0]); off < n; off += blockLen {
		end := min(off+blockLen, n)
		for r0 := 0; r0 < kn.rows; r0 += tileRows {
			rows := min(tileRows, kn.rows-r0)
			for cg := 0; cg < colGroups; cg++ {
				for j := range d {
					c := cg*tileCols + j
					if c >= kn.cols {
						c = 0 // zero table: any readable column does
					}
					d[j] = in[c][off:end]
				}
				for q := range p {
					switch {
					case q >= rows:
						// One sink for every row the group lacks: stores
						// to one address merge in the store buffer.
						p[q] = scratch[tileRows-1][:end-off]
					case cg == 0:
						p[q] = out[r0+q][off:end]
					default:
						p[q] = scratch[q][:end-off]
					}
				}
				mulTile(&kn.tiles[r0/tileRows*colGroups+cg], &d, &p)
				if cg > 0 {
					for q := 0; q < rows; q++ {
						o := out[r0+q][off:end]
						subtle.XORBytes(o, o, p[q])
					}
				}
			}
		}
	}
}

// mulTile is the inner loop: four input shards in, four output shards
// out, p[q][i] = XOR_j coef[q][j]·d[j][i]. All eight slices have the
// length of d[0].
func mulTile(t *tileTable, d *[tileCols][]byte, p *[tileRows][]byte) {
	d0 := d[0]
	n := len(d0)
	d1, d2, d3 := d[1][:n], d[2][:n], d[3][:n]
	p0, p1, p2, p3 := p[0][:n], p[1][:n], p[2][:n], p[3][:n]
	for i := 0; i < n; i++ {
		acc := t[0][d0[i]] ^ t[1][d1[i]] ^ t[2][d2[i]] ^ t[3][d3[i]]
		p0[i] = byte(acc)
		p1[i] = byte(acc >> 8)
		p2[i] = byte(acc >> 16)
		p3[i] = byte(acc >> 24)
	}
}
