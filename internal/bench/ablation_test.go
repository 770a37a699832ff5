package bench

import (
	"bytes"
	"testing"
)

func TestAblationBus(t *testing.T) {
	res := RunAblationBus(5000)
	if res.WithAggregate >= res.NoAggregate {
		t.Fatalf("aggregation saved nothing: %+v", res)
	}
	if res.SavingsPercent < 30 {
		t.Fatalf("savings only %.1f%%", res.SavingsPercent)
	}
}

func TestAblationEC(t *testing.T) {
	points, err := RunAblationEC()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Overhead <= 1 || p.Overhead >= 2 {
			t.Fatalf("EC(%d,%d) overhead %v", p.K, p.M, p.Overhead)
		}
		if p.EncodeCostMs < 0 {
			t.Fatalf("negative encode cost: %+v", p)
		}
	}
	// Wider stripes are cheaper per byte stored: EC(10,2) < EC(4,2).
	var o42, o102 float64
	for _, p := range points {
		if p.K == 4 && p.M == 2 {
			o42 = p.Overhead
		}
		if p.K == 10 && p.M == 2 {
			o102 = p.Overhead
		}
	}
	if o102 >= o42 {
		t.Fatalf("EC(10,2)=%v not cheaper than EC(4,2)=%v", o102, o42)
	}
}

func TestAblationPushdown(t *testing.T) {
	res, err := RunAblationPushdown(11)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithPushdown >= res.WithoutPushdown {
		t.Fatalf("pushdown not faster: %+v", res)
	}
	if res.BytesShippedOn >= res.BytesShippedOff {
		t.Fatalf("pushdown shipped more: %+v", res)
	}
}

func TestAblationSPN(t *testing.T) {
	res := RunAblationSPN(13)
	if res.SPNMeanErr >= res.UniformErr {
		t.Fatalf("SPN (%.3f) no better than uniform (%.3f)", res.SPNMeanErr, res.UniformErr)
	}
	if res.SPNWinsCount < res.Queries/2 {
		t.Fatalf("SPN wins only %d/%d", res.SPNWinsCount, res.Queries)
	}
}

func TestAblationReportRenders(t *testing.T) {
	busRes := RunAblationBus(1000)
	ecRes, err := RunAblationEC()
	if err != nil {
		t.Fatal(err)
	}
	pd, err := RunAblationPushdown(11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	AblationReport(busRes, ecRes, pd, RunAblationSPN(13)).Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}
