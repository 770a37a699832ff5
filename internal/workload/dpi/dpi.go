// Package dpi synthesizes the China Mobile use-case workload of Section
// VII-A (Figures 12 and 13): mobile app DPI (deep packet inspection) log
// packets averaging 1.2 KB, flowing through the four-stage pipeline —
// collection, normalization (validation + privacy shielding), labeling
// (knowledge-base app labels), and query (the DAU-per-province query).
// The paper's production traces are proprietary; this generator
// reproduces their shape: the same record fields, size distribution,
// skewed app popularity, and provincial spread.
package dpi

import (
	"fmt"
	"strings"

	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
	"streamlake/internal/sim"
)

// PacketSize is the paper's average packet size: 1.2 KB.
const PacketSize = 1200

// BaseTime is July 3rd, 2022 (the Figure 13 query window start).
const BaseTime int64 = 1656806400

// RawSchema is the collected packet record: pre-normalization, carrying
// the raw subscriber id and the payload padding that brings each packet
// to ~1.2 KB.
var RawSchema = colfile.MustSchema(
	"url:string", "start_time:int64", "province:string",
	"user_id:int64", "bytes:int64", "payload:string")

// NormSchema is the normalized record: validated, subscriber id hashed
// for privacy, payload dropped.
var NormSchema = colfile.MustSchema(
	"url:string", "start_time:int64", "province:string",
	"user_hash:int64", "bytes:int64")

// LabeledSchema adds the knowledge-base application label.
var LabeledSchema = colfile.MustSchema(
	"url:string", "start_time:int64", "province:string",
	"user_hash:int64", "bytes:int64", "app_label:string")

// Provinces are the regions data flows from (the paper: over 30
// provinces; a representative subset keeps group-bys readable).
var Provinces = []string{
	"Beijing", "Shanghai", "Guangdong", "Sichuan", "Zhejiang",
	"Jiangsu", "Shandong", "Henan", "Hubei", "Hunan",
}

// URLs and their knowledge-base labels; the fin-app URL of Figure 13 is
// the workload's hot key.
var urls = []string{
	"http://streamlake_fin_app.com",
	"http://video.example.cn",
	"http://social.example.cn",
	"http://game.example.cn",
	"http://news.example.cn",
	"http://shop.example.cn",
}

var labels = map[string]string{
	"http://streamlake_fin_app.com": "finance",
	"http://video.example.cn":       "video",
	"http://social.example.cn":      "social",
	"http://game.example.cn":        "gaming",
	"http://news.example.cn":        "news",
	"http://shop.example.cn":        "shopping",
}

// FinAppURL is the Figure 13 query's target application.
const FinAppURL = "http://streamlake_fin_app.com"

// Generator produces DPI packets deterministically from a seed.
type Generator struct {
	rng  *sim.RNG
	zipf *sim.Zipf
	pad  string
	i    int64
}

// NewGenerator builds a generator.
func NewGenerator(seed uint64) *Generator {
	rng := sim.NewRNG(seed)
	return &Generator{
		rng:  rng,
		zipf: sim.NewZipf(rng, len(urls), 0.9), // app popularity is skewed
		pad:  strings.Repeat("x", PacketSize-160),
	}
}

// RawRow produces the next raw packet record. Roughly 2% of packets are
// malformed (empty url), exercising the normalization stage's
// validation.
func (g *Generator) RawRow() colfile.Row {
	i := g.i
	g.i++
	url := urls[g.zipf.Next()]
	if g.rng.Intn(50) == 0 {
		url = "" // corrupted capture
	}
	return colfile.Row{
		colfile.StringValue(url),
		colfile.IntValue(BaseTime + i%(2*86400)), // two days of traffic
		colfile.StringValue(Provinces[g.rng.Intn(len(Provinces))]),
		colfile.IntValue(int64(g.rng.Intn(5_000_000))), // subscriber id
		colfile.IntValue(800 + g.rng.Int63n(900)),      // flow bytes
		colfile.StringValue(g.pad),
	}
}

// Packet produces the next packet as a stream message: key is the
// subscriber id, value is the rowcodec-encoded raw record (~1.2 KB).
func (g *Generator) Packet() (key, value []byte, err error) {
	row := g.RawRow()
	value, err = rowcodec.Encode(RawSchema, []colfile.Row{row})
	if err != nil {
		return nil, nil, err
	}
	key = []byte(fmt.Sprintf("u%d", row[3].Int))
	return key, value, nil
}

// Normalize validates and privacy-shields one raw record (pipeline stage
// b): malformed packets are rejected, subscriber ids are hashed. It works
// in place: the hash overwrites raw's subscriber id and the result is
// raw[:5], so raw's payload slot is the spare capacity Label fills.
func Normalize(raw colfile.Row) (colfile.Row, bool) {
	if len(raw) != RawSchema.NumFields() || raw[0].Str == "" {
		return nil, false
	}
	if raw[1].Int < BaseTime || raw[4].Int <= 0 {
		return nil, false
	}
	// Privacy shielding: a keyed hash stands in for the paper's masking.
	h := raw[3].Int*2654435761 + 12345
	if h < 0 {
		h = -h
	}
	raw[3] = colfile.IntValue(h)
	return raw[:5], true
}

// Label attaches the knowledge-base application label (pipeline stage
// c). It writes the label into norm's spare capacity when there is any
// — the slot after Normalize's result — and otherwise copies norm into
// one exact-size row.
func Label(norm colfile.Row) colfile.Row {
	label, ok := labels[norm[0].Str]
	if !ok {
		label = "unknown"
	}
	if len(norm) == cap(norm) {
		norm = append(make(colfile.Row, 0, len(norm)+1), norm...)
	}
	return append(norm, colfile.StringValue(label))
}

// DAUQuery is the Figure 13 query, parameterized by day offset from
// BaseTime.
func DAUQuery(table string, day int) string {
	lo := BaseTime + int64(day)*86400
	hi := lo + 86400
	return fmt.Sprintf(`Select COUNT(*) as DAU From %s Where url = '%s' and start_time >= %d and start_time < %d Group By province`,
		table, FinAppURL, lo, hi)
}
