package main

import (
	"fmt"
	"hash/maphash"
	"sort"

	"streamlake"
	"streamlake/internal/rowcodec"
	"streamlake/internal/sim"
	"streamlake/internal/workload/dpi"
	"streamlake/internal/workload/tpch"
)

// poolSize is how many distinct messages a workload cycles through, so
// the harness's own heap stays small next to the lake's.
const poolSize = 8192

var hashSeed = maphash.MakeSeed()

// message is one pre-generated stream message.
type message struct {
	key, value []byte
	hash       uint64 // of value, for the consume-side check
	// DPI packets only: what the pipeline's conversion should make of it.
	accepted bool
	province string
	second   int64 // start_time, in seconds since dpi.BaseTime
	day      int
	fin      bool
}

// dpiPool generates the DPI packet pool (~1.2 KB each). The generator's
// own timestamps advance one second per packet, which would put a pool
// of 8,192 inside the first three hours; they are respread evenly over
// the generator's two days so both DAU queries have rows to count.
func dpiPool(seed uint64) ([]message, error) {
	gen := dpi.NewGenerator(seed)
	step := int64(2*86400) / poolSize
	pool := make([]message, poolSize)
	for i := range pool {
		row := gen.RawRow()
		ts := dpi.BaseTime + int64(i)*step
		row[1] = streamlake.IntValue(ts)
		value, err := rowcodec.Encode(dpi.RawSchema, []streamlake.Row{row})
		if err != nil {
			return nil, err
		}
		pool[i] = message{
			key:      []byte(fmt.Sprintf("u%d", row[3].Int)),
			value:    value,
			hash:     maphash.Bytes(hashSeed, value),
			accepted: row[0].Str != "",
			province: row[2].Str,
			second:   ts - dpi.BaseTime,
			day:      int((ts - dpi.BaseTime) / 86400),
			fin:      row[0].Str == dpi.FinAppURL,
		}
	}
	return pool, nil
}

// smallPool generates the ~200 B messages of the rest and cluster
// workloads. Sizes are drawn from the seed (150..250 B) so that byte
// counts and virtual latencies depend on it like every other input.
func smallPool(seed uint64) []message {
	rng := sim.NewRNG(seed)
	pool := make([]message, poolSize)
	for i := range pool {
		value := make([]byte, 150+rng.Intn(101))
		for j := range value {
			value[j] = byte(rng.Uint64())
		}
		pool[i] = message{
			key:   []byte(fmt.Sprintf("k%d", rng.Intn(1_000_000))),
			value: value,
			hash:  maphash.Bytes(hashSeed, value),
		}
	}
	return pool
}

// Column positions in tpch.LineitemSchema the warehouse workload reads.
const (
	colQuantity = 3
	colDiscount = 5
	colShipdate = 9
	colShipmode = 12
)

// lineitem is the warehouse table: rows sorted by l_shipdate, cut into
// insert batches, each batch split by l_shipmode (the partition column).
// lakehouse.Engine.Insert walks a map of partitions, so a batch spanning
// several would write its files in a different order on every run; one
// Insert call per (batch, partition) keeps the layout — and with it
// every virtual-time and cache number — a function of the seed alone.
type lineitem struct {
	rows    []streamlake.Row
	batches [][][]streamlake.Row
}

func lineitemTable(seed uint64, rows, batchRows int) lineitem {
	t := lineitem{rows: tpch.Lineitem(rows, seed)}
	sort.SliceStable(t.rows, func(i, j int) bool {
		return t.rows[i][colShipdate].Int < t.rows[j][colShipdate].Int
	})
	for lo := 0; lo < len(t.rows); lo += batchRows {
		hi := lo + batchRows
		if hi > len(t.rows) {
			hi = len(t.rows)
		}
		byMode := map[string][]streamlake.Row{}
		var modes []string
		for _, r := range t.rows[lo:hi] {
			m := r[colShipmode].Str
			if _, ok := byMode[m]; !ok {
				modes = append(modes, m)
			}
			byMode[m] = append(byMode[m], r)
		}
		sort.Strings(modes)
		var batch [][]streamlake.Row
		for _, m := range modes {
			batch = append(batch, byMode[m])
		}
		t.batches = append(t.batches, batch)
	}
	return t
}
