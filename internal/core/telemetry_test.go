package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	telem "dvsim/internal/telemetry"
)

func decodeLog(t *testing.T, buf *bytes.Buffer) []telem.Record {
	t.Helper()
	var records []telem.Record
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var r telem.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		records = append(records, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return records
}

func TestRunTelemetryEmitsAllEventKinds(t *testing.T) {
	p := DefaultParams()
	var buf bytes.Buffer
	// 150 s ≈ 65 frame periods: enough for samples (60 s cadence), links,
	// results and latencies; no deaths this early.
	n := mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 150}, Sinks{Log: &buf}).Records
	records := decodeLog(t, &buf)
	if len(records) != n {
		t.Fatalf("wrote %d records, decoded %d", n, len(records))
	}
	counts := map[string]int{}
	prev := telem.Record{T: -1}
	for _, r := range records {
		if lessRecord(&r, &prev) {
			t.Fatalf("records out of order: %+v after %+v", r, prev)
		}
		prev = r
		counts[r.Event]++
		switch r.Event {
		case "link":
			if r.From == "" || r.To == "" || r.Kind == "" || r.DurS <= 0 {
				t.Fatalf("bad link record: %+v", r)
			}
		case "latency":
			if r.Value <= 0 || r.From == "" {
				t.Fatalf("bad latency record: %+v", r)
			}
		case "sample":
			if r.Metric == "" {
				t.Fatalf("bad sample record: %+v", r)
			}
		}
	}
	for _, kind := range []string{"mode", "result", "link", "latency", "sample"} {
		if counts[kind] == 0 {
			t.Fatalf("no %q records (counts %v)", kind, counts)
		}
	}
	if counts["latency"] != counts["result"] {
		t.Fatalf("%d latency records for %d results", counts["latency"], counts["result"])
	}
}

func TestRunTelemetryDeterministic(t *testing.T) {
	p := DefaultParams()
	var a, b bytes.Buffer
	mustSimulate(t, Spec{ID: Exp2C, Params: p, UntilS: 120}, Sinks{Log: &a})
	mustSimulate(t, Spec{ID: Exp2C, Params: p, UntilS: 120}, Sinks{Log: &b})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("telemetry logs differ between identical runs")
	}
}

// TestTelemetrySoCOrdering checks the paper's asymmetric-drain story
// (§6.4–6.5): without rotation the node with the heavier stage (node2 at
// 118 vs 74 MHz in experiment 2B's split) drains first — every
// battery_soc sample of node2 sits at or below node1's, and node2's
// death precedes node1's in the full run.
func TestTelemetrySoCOrdering(t *testing.T) {
	p := DefaultParams()
	for _, id := range []ID{Exp2, Exp2A, Exp2B} {
		id := id
		t.Run(string(id), func(t *testing.T) {
			t.Parallel()
			out := mustSimulate(t, Spec{ID: id, Params: p}, Sinks{Metrics: true})
			soc := map[string][]float64{}
			for _, s := range out.Metrics.Series {
				if s.Name != "battery_soc" {
					continue
				}
				for _, pt := range s.Samples {
					soc[s.Node] = append(soc[s.Node], pt.V)
				}
			}
			n1, n2 := soc["node1"], soc["node2"]
			if len(n1) == 0 || len(n2) == 0 {
				t.Fatalf("missing battery_soc series: %d/%d samples", len(n1), len(n2))
			}
			m := len(n1)
			if len(n2) < m {
				m = len(n2)
			}
			for i := 0; i < m; i++ {
				if n2[i] > n1[i]+1e-9 {
					t.Fatalf("sample %d: node2 SoC %.4f above node1 %.4f", i, n2[i], n1[i])
				}
			}
			var died1, died2 float64
			for _, ns := range out.NodeStats {
				switch ns.Name {
				case "node1":
					died1 = ns.DiedAtH
				case "node2":
					died2 = ns.DiedAtH
				}
			}
			if died2 == 0 {
				t.Fatal("node2 survived the run")
			}
			if died1 > 0 && died1 < died2 {
				t.Fatalf("node1 died first (%.2f h vs %.2f h)", died1, died2)
			}
		})
	}
}

// TestInstrumentedMatchesPlainRun guards the zero-overhead contract the
// other way around: attaching telemetry must not change the simulation's
// physics, only observe it.
func TestInstrumentedMatchesPlainRun(t *testing.T) {
	p := DefaultParams()
	plain := mustSimulate(t, Spec{ID: Exp2, Params: p}, Sinks{})
	inst := mustSimulate(t, Spec{ID: Exp2, Params: p}, Sinks{Metrics: true})
	if plain.Frames != inst.Frames {
		t.Fatalf("frames %d vs %d with telemetry", plain.Frames, inst.Frames)
	}
	if plain.BatteryLifeH != inst.BatteryLifeH {
		t.Fatalf("battery life %v vs %v with telemetry", plain.BatteryLifeH, inst.BatteryLifeH)
	}
	if !plain.Metrics.Empty() {
		t.Fatal("plain run carries a metrics snapshot")
	}
	if inst.Metrics.Empty() {
		t.Fatal("instrumented run has no metrics snapshot")
	}
	if len(inst.PortStats) == 0 || len(plain.PortStats) == 0 {
		t.Fatal("port stats missing")
	}
}

func TestRunInstrumentedNoIO(t *testing.T) {
	out := mustSimulate(t, Spec{ID: Exp0A, Params: DefaultParams()}, Sinks{Metrics: true})
	if out.Metrics.Empty() {
		t.Fatal("no metrics from instrumented 0A run")
	}
	var socSamples int
	for _, s := range out.Metrics.Series {
		if s.Name == "battery_soc" && s.Node == "node1" {
			socSamples = len(s.Samples)
		}
	}
	// 0A dies at ~3.4 h ≈ 200+ samples at the 60 s default cadence.
	if socSamples < 100 {
		t.Fatalf("only %d battery_soc samples for the 0A run", socSamples)
	}
}

// TestTelemetryLogMatchesOutcome: a log and the outcome of the same run
// tell one story — a result record per delivered frame and a death
// record per dead node. In 2C over the 30 h default window, node1's
// stranded charge runs out only when the final metering segment
// settles at the window's end; that death must still be logged.
func TestTelemetryLogMatchesOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("full window")
	}
	var buf bytes.Buffer
	out := mustSimulate(t, Spec{ID: Exp2C, Params: DefaultParams(), UntilS: 30 * 3600}, Sinks{Log: &buf})
	results, deaths := 0, map[string]bool{}
	for _, r := range decodeLog(t, &buf) {
		switch r.Event {
		case "result":
			results++
		case "death":
			deaths[r.Node] = true
		}
	}
	if results != out.Frames {
		t.Errorf("%d result records for %d frames", results, out.Frames)
	}
	for _, ns := range out.NodeStats {
		if dead := ns.DiedAtH > 0; dead != deaths[ns.Name] {
			t.Errorf("%s: outcome says dead=%v (%.2f h), log says %v", ns.Name, dead, ns.DiedAtH, deaths[ns.Name])
		}
	}
}
