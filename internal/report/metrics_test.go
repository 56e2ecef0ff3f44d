package report

import (
	"encoding/csv"
	"strings"
	"testing"

	"dvsim/internal/core"
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
)

func sampleSnapshot() metrics.Snapshot {
	return metrics.Snapshot{
		Counters: []metrics.CounterValue{
			{Name: "node_frames_processed", Node: "node1", Value: 42},
			{Name: "node_frames_processed", Node: "node2", Value: 40},
		},
		Gauges: []metrics.GaugeValue{
			{Name: "host_queue_depth", Value: 2},
		},
		Histograms: []metrics.HistogramValue{
			{
				Name: "node_proc_s", Node: "node1",
				Bounds: []float64{1, 2, 5},
				Counts: []uint64{3, 5, 1, 1},
				Count:  10, Sum: 17.5, Min: 0.4, Max: 7.5,
			},
		},
		Series: []metrics.SeriesValue{
			{
				Name: "battery_soc", Node: "node1", PeriodS: 60,
				Samples: []metrics.SamplePoint{{T: 0, V: 1}, {T: 60, V: 0.98}},
			},
		},
	}
}

func TestMetricsCSV(t *testing.T) {
	out := MetricsCSV(sampleSnapshot())
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // header + 2 counters + 1 gauge + 1 histogram + 1 series
		t.Fatalf("%d rows: %q", len(rows), out)
	}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("ragged row %v", row)
		}
	}
	if rows[1][0] != "counter" || rows[1][1] != "node_frames_processed" || rows[1][3] != "42" {
		t.Fatalf("counter row %v", rows[1])
	}
	hist := rows[4]
	if hist[0] != "histogram" || hist[4] != "10" {
		t.Fatalf("histogram row %v", hist)
	}
	// p50: rank 5 lands in the second bucket (bound 2); p99 in +Inf → Max.
	if hist[8] != "2" || hist[10] != "7.5" {
		t.Fatalf("histogram quantiles %v", hist)
	}
	series := rows[5]
	if series[0] != "series" || series[3] != "0.98" || series[4] != "2" {
		t.Fatalf("series row %v", series)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	if q := histQuantile(metrics.HistogramValue{}, 0.5); q != 0 {
		t.Fatalf("empty histogram quantile %v", q)
	}
}

func TestPortsCSV(t *testing.T) {
	outs := []core.Outcome{{
		ID: core.Exp2,
		PortStats: []core.PortStat{
			{Port: "node1", PortStats: serial.PortStats{
				TxTransfers: 10, TxKB: 75, TxStartupS: 0.9,
				RxTransfers: 11, RxKB: 101, MaxPending: 2,
			}},
		},
	}}
	rows, err := csv.NewReader(strings.NewReader(PortsCSV(outs))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	want := []string{"2", "node1", "10", "75.00", "0.90", "0", "0", "0", "0", "0", "0",
		"11", "101.00", "0", "0", "0", "2"}
	for i, w := range want {
		if rows[1][i] != w {
			t.Fatalf("col %d = %q, want %q (row %v)", i, rows[1][i], w, rows[1])
		}
	}
}

// TestPortsCSVFromRun pins the exporter to a real instrumented run: every
// port the pipeline created shows up and the host source's tx volume is
// the frame traffic.
func TestPortsCSVFromRun(t *testing.T) {
	p := core.DefaultParams()
	p.RotationPeriod = 0
	out := simulate(t, core.Spec{Stages: core.StagesFromPartition(mustBest2(t, p), true), Label: "mini", Params: p, Frames: 5},
		core.Sinks{Metrics: true})
	got := PortsCSV([]core.Outcome{out})
	for _, port := range []string{"host-src", "host-sink", "node1", "node2"} {
		if !strings.Contains(got, "mini,"+port+",") {
			t.Errorf("PortsCSV missing port %s:\n%s", port, got)
		}
	}
	if out.Metrics.Empty() {
		t.Error("instrumented custom run carries no metrics")
	}
}

func mustBest2(t *testing.T, p core.Params) core.Partition {
	t.Helper()
	s, err := p.BestTwoNodeScheme()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
