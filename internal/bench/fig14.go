package bench

import (
	"fmt"
	"time"

	"streamlake/internal/baseline/kafkafs"
	"streamlake/internal/colfile"
	"streamlake/internal/ec"
	"streamlake/internal/plog"
	"streamlake/internal/pool"
	"streamlake/internal/sim"
	"streamlake/internal/streamobj"
	"streamlake/internal/streamsvc"
	"streamlake/internal/workload/dpi"
	"streamlake/internal/workload/openmsg"
)

// Fig14aPoint is one latency measurement: message rate vs produce
// latency for hardware Set-1 (SSD journal) and Set-2 (+SCM cache).
type Fig14aPoint struct {
	Rate       float64
	Set1, Set2 time.Duration
}

// DefaultFig14Rates is the paper's sweep: 50k to 1.5M messages/second.
var DefaultFig14Rates = []float64{50_000, 100_000, 200_000, 500_000, 1_000_000, 1_500_000}

func newStreamService(scm bool) *streamsvc.Service {
	clock := sim.NewClock()
	p := pool.New("f14", clock, sim.NVMeSSD, 6, 8<<20)
	store := streamobj.NewStore(clock, plog.NewManager(p, 2<<20))
	svc := streamsvc.New(clock, store, 3)
	svc.CreateTopic(streamsvc.TopicConfig{Name: "bench", StreamNum: 4, SCMCache: scm})
	return svc
}

// RunFig14a sweeps produce latency across message rates for both
// hardware sets (1 KB messages, as in the paper).
func RunFig14a(rates []float64) ([]Fig14aPoint, error) {
	if rates == nil {
		rates = DefaultFig14Rates
	}
	var out []Fig14aPoint
	for _, r := range rates {
		s1, err := openmsg.Run(newStreamService(false), openmsg.Config{
			Topic: "bench", MessageSize: 1024, RatePerSec: r, SampleMessages: 3000})
		if err != nil {
			return nil, err
		}
		s2, err := openmsg.Run(newStreamService(true), openmsg.Config{
			Topic: "bench", MessageSize: 1024, RatePerSec: r, SampleMessages: 3000, SCM: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14aPoint{Rate: r, Set1: s1.Mean, Set2: s2.Mean})
	}
	return out, nil
}

// Fig14aReport renders the latency sweep.
func Fig14aReport(points []Fig14aPoint) *Report {
	r := &Report{
		Title:   "Figure 14(a): produce latency vs message rate",
		Columns: []string{"rate(msg/s)", "Set-1 SSD", "Set-2 +SCM", "SCM speedup"},
		Notes:   []string{"paper: persistent memory reduces latency, especially at <= 200k msg/s"},
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{
			fmtRate(p.Rate), p.Set1.String(), p.Set2.String(),
			fmtRatio(p.Set1.Seconds() / p.Set2.Seconds()),
		})
	}
	return r
}

// Fig14bPoint is one throughput measurement.
type Fig14bPoint struct {
	Rate       float64
	Set1, Set2 float64 // sustained throughput
}

// RunFig14b sweeps sustained throughput across offered rates.
func RunFig14b(rates []float64) ([]Fig14bPoint, error) {
	if rates == nil {
		rates = DefaultFig14Rates
	}
	var out []Fig14bPoint
	for _, r := range rates {
		s1, err := openmsg.Run(newStreamService(false), openmsg.Config{
			Topic: "bench", MessageSize: 1024, RatePerSec: r, SampleMessages: 2000})
		if err != nil {
			return nil, err
		}
		s2, err := openmsg.Run(newStreamService(true), openmsg.Config{
			Topic: "bench", MessageSize: 1024, RatePerSec: r, SampleMessages: 2000, SCM: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14bPoint{Rate: r, Set1: s1.Throughput, Set2: s2.Throughput})
	}
	return out, nil
}

// Fig14bReport renders the throughput sweep.
func Fig14bReport(points []Fig14bPoint) *Report {
	r := &Report{
		Title:   "Figure 14(b): throughput vs offered rate",
		Columns: []string{"offered(msg/s)", "Set-1(msg/s)", "Set-2(msg/s)"},
		Notes:   []string{"paper: throughput scales linearly; Set-1 ~= Set-2 (SCM does not add throughput)"},
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{fmtRate(p.Rate), fmtRate(p.Set1), fmtRate(p.Set2)})
	}
	return r
}

// Fig14cResult compares scaling elasticity: StreamLake's metadata-only
// remap vs a file-based broker's data-moving rebalance, growing 1000 to
// 10000 partitions.
type Fig14cResult struct {
	FromPartitions, ToPartitions int
	StreamLakeRemap              time.Duration
	StreamLakeMoved              int // stream assignments remapped
	KafkaRebalance               time.Duration
	KafkaMovedBytes              int64
}

// RunFig14c measures the partition scaling of both architectures.
func RunFig14c() (Fig14cResult, error) {
	res := Fig14cResult{FromPartitions: 1000, ToPartitions: 10000}

	// StreamLake: 1000 streams served by 4 workers; scaling to serve
	// 10000 partitions worth of load re-maps metadata only.
	clock := sim.NewClock()
	p := pool.New("f14c", clock, sim.NVMeSSD, 6, 8<<20)
	store := streamobj.NewStore(clock, plog.NewManager(p, 2<<20))
	svc := streamsvc.New(clock, store, 4)
	if err := svc.CreateTopic(streamsvc.TopicConfig{Name: "t", StreamNum: res.FromPartitions}); err != nil {
		return res, err
	}
	prod := svc.Producer("p")
	gen := dpi.NewGenerator(1)
	for i := 0; i < 20_000; i++ {
		key, value, err := gen.Packet()
		if err != nil {
			return res, err
		}
		if _, _, err := prod.Send("t", key, value); err != nil {
			return res, err
		}
	}
	// Grow to 10000 streams (new stream objects are empty metadata) and
	// rescale the workers: existing data never moves.
	if err := svc.CreateTopic(streamsvc.TopicConfig{Name: "t2", StreamNum: res.ToPartitions - res.FromPartitions}); err != nil {
		return res, err
	}
	moved, cost := svc.SetWorkerCount(16)
	res.StreamLakeMoved = moved
	res.StreamLakeRemap = cost

	// Kafka: growing partitions re-spreads segment data.
	broker := kafkafs.New(kafkafs.Config{})
	broker.CreateTopic("t", res.FromPartitions)
	kgen := dpi.NewGenerator(1)
	for i := 0; i < 20_000; i++ {
		key, value, err := kgen.Packet()
		if err != nil {
			return res, err
		}
		if _, _, err := broker.Produce("t", i%res.FromPartitions, key, value); err != nil {
			return res, err
		}
	}
	movedBytes, kcost, err := broker.ScalePartitions("t", res.ToPartitions)
	if err != nil {
		return res, err
	}
	res.KafkaMovedBytes = movedBytes
	res.KafkaRebalance = kcost
	return res, nil
}

// Fig14cReport renders the elasticity comparison.
func Fig14cReport(res Fig14cResult) *Report {
	return &Report{
		Title:   "Figure 14(c): scaling 1000 -> 10000 partitions",
		Columns: []string{"system", "rebalance time", "data moved"},
		Rows: [][]string{
			{"StreamLake (metadata remap)", res.StreamLakeRemap.String(), fmt.Sprintf("0 B (%d assignments)", res.StreamLakeMoved)},
			{"Kafka-style (segment move)", res.KafkaRebalance.String(), fmtMB(res.KafkaMovedBytes) + " MB"},
		},
		Notes: []string{"paper: StreamLake scales 1000->10000 partitions in under 10 s with no data migration"},
	}
}

// Fig14dPoint is one space-consumption measurement: the physical size
// multiplier at a given fault tolerance under three strategies.
type Fig14dPoint struct {
	FaultTolerance int
	Replication    float64
	EC             float64
	ECColStore     float64
}

// RunFig14d computes the storage multipliers of Replication, EC and
// EC+Col-store at fault tolerance 1..4, measuring the columnar
// compression factor on real DPI field data (payload excluded, as
// archived columnar data drops raw payloads).
func RunFig14d() ([]Fig14dPoint, error) {
	// Measure the columnar compression ratio on labeled DPI rows.
	gen := dpi.NewGenerator(7)
	w := colfile.NewWriter(dpi.LabeledSchema, 0)
	var rowBytes int64
	for i := 0; i < 20_000; i++ {
		raw := gen.RawRow()
		norm, ok := dpi.Normalize(raw)
		if !ok {
			continue
		}
		lab := dpi.Label(norm)
		for _, v := range lab {
			switch v.Type {
			case colfile.String:
				rowBytes += int64(len(v.Str)) + 1
			default:
				rowBytes += 8
			}
		}
		if err := w.Append(lab); err != nil {
			return nil, err
		}
	}
	blob, err := w.Finish()
	if err != nil {
		return nil, err
	}
	colRatio := float64(len(blob)) / float64(rowBytes)

	var out []Fig14dPoint
	for ft := 1; ft <= 4; ft++ {
		rep := plog.ReplicateN(ft + 1)
		code, err := ec.New(4, ft)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14dPoint{
			FaultTolerance: ft,
			Replication:    rep.Overhead(),
			EC:             code.Overhead(),
			ECColStore:     code.Overhead() * colRatio,
		})
	}
	return out, nil
}

// Fig14dReport renders the space comparison.
func Fig14dReport(points []Fig14dPoint) *Report {
	r := &Report{
		Title:   "Figure 14(d): space consumption vs fault tolerance",
		Columns: []string{"FT", "Replication(x)", "EC(x)", "EC+Col-store(x)"},
		Notes:   []string{"paper: EC and EC+Col-store save 3-5x over replication without sacrificing reliability"},
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.FaultTolerance),
			fmtRatio(p.Replication), fmtRatio(p.EC), fmtRatio(p.ECColStore),
		})
	}
	return r
}
