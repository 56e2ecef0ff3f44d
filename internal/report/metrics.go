package report

import (
	"encoding/csv"
	"fmt"
	"strings"

	"dvsim/internal/core"
	"dvsim/internal/metrics"
)

// Telemetry exporters. CSV (table.go's companion) stays byte-stable for
// existing pipelines; the per-port and per-instrument views live in the
// separate exporters below.

// PortsCSV renders each outcome's per-port serial accounting as CSV:
// one row per (experiment, port), sorted as the outcomes carry them
// (ports are already name-sorted by the network).
func PortsCSV(outs []core.Outcome) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{
		"exp", "port", "tx_transfers", "tx_kb", "tx_startup_s", "tx_timeouts",
		"tx_acks", "tx_dropped", "tx_garbled", "tx_retries", "tx_giveups",
		"rx_transfers", "rx_kb", "rx_timeouts", "rx_dropped", "rx_garbled",
		"max_pending",
	})
	for _, o := range outs {
		for _, ps := range o.PortStats {
			_ = w.Write([]string{
				string(o.ID), ps.Port,
				fmt.Sprint(ps.TxTransfers),
				fmt.Sprintf("%.2f", ps.TxKB),
				fmt.Sprintf("%.2f", ps.TxStartupS),
				fmt.Sprint(ps.TxTimeouts),
				fmt.Sprint(ps.TxAcks),
				fmt.Sprint(ps.TxDropped),
				fmt.Sprint(ps.TxGarbled),
				fmt.Sprint(ps.TxRetries),
				fmt.Sprint(ps.TxGiveUps),
				fmt.Sprint(ps.RxTransfers),
				fmt.Sprintf("%.2f", ps.RxKB),
				fmt.Sprint(ps.RxTimeouts),
				fmt.Sprint(ps.RxDropped),
				fmt.Sprint(ps.RxGarbled),
				fmt.Sprint(ps.MaxPending),
			})
		}
	}
	w.Flush()
	return b.String()
}

// MetricsCSV renders an instrumentation snapshot as CSV, one row per
// instrument. Counters and gauges report their value; histograms add
// count/sum/min/max and the p50/p90/p99 bucket bounds; series report
// their final sample and sample count (a -telemetry log carries every
// sample as a "sample" record).
// Snapshot slices are (name, node)-sorted, so output is deterministic.
func MetricsCSV(s metrics.Snapshot) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{
		"type", "name", "node", "value", "count", "sum", "min", "max",
		"p50", "p90", "p99",
	})
	for _, c := range s.Counters {
		_ = w.Write([]string{"counter", c.Name, c.Node, fmtF(c.Value), "", "", "", "", "", "", ""})
	}
	for _, g := range s.Gauges {
		_ = w.Write([]string{"gauge", g.Name, g.Node, fmtF(g.Value), "", "", "", "", "", "", ""})
	}
	for _, h := range s.Histograms {
		_ = w.Write([]string{
			"histogram", h.Name, h.Node, "",
			fmt.Sprint(h.Count), fmtF(h.Sum), fmtF(h.Min), fmtF(h.Max),
			fmtF(histQuantile(h, 0.5)), fmtF(histQuantile(h, 0.9)), fmtF(histQuantile(h, 0.99)),
		})
	}
	for _, sr := range s.Series {
		var last float64
		if n := len(sr.Samples); n > 0 {
			last = sr.Samples[n-1].V
		}
		_ = w.Write([]string{
			"series", sr.Name, sr.Node, fmtF(last),
			fmt.Sprint(len(sr.Samples)), "", "", "", "", "", "",
		})
	}
	w.Flush()
	return b.String()
}

// histQuantile estimates quantile q from the exported bucket counts: the
// upper bound of the bucket where the q-th observation lands (Max for
// the +Inf bucket).
func histQuantile(h metrics.HistogramValue, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if rank < cum {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

func fmtF(v float64) string { return fmt.Sprintf("%g", v) }
