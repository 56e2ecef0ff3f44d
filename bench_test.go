package dvsim

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md. Each benchmark both measures the cost of regenerating its
// artifact and reports the reproduced quantities as custom metrics
// (hours, frames, normalized ratio), so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. Paper targets appear as *_paper
// metrics next to the model's value.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/core"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/report"
	"dvsim/internal/serial"
)

// BenchmarkFig6PerformanceProfile measures the native ATR pipeline on
// synthetic frames — the computation the paper's Fig 6 profiles at
// 0.18/0.19/0.32/0.53 s per block on the 206 MHz StrongARM.
func BenchmarkFig6PerformanceProfile(b *testing.B) {
	scene := atr.NewScene(7)
	pipe := atr.NewPipeline()
	frames := make([]*atr.Image, 16)
	for i := range frames {
		frames[i], _ = scene.Frame(1)
	}
	b.ResetTimer()
	detections := 0
	for i := 0; i < b.N; i++ {
		res := pipe.Process(frames[i%len(frames)])
		detections += len(res)
	}
	b.ReportMetric(float64(detections)/float64(b.N), "detections/frame")
}

// BenchmarkFig7PowerProfile regenerates the power-profile table: current
// draw for all 11 operating points × 3 modes.
func BenchmarkFig7PowerProfile(b *testing.B) {
	pm := cpu.DefaultPowerModel()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, m := range cpu.Modes {
			for _, op := range cpu.Table {
				sink += pm.CurrentMA(m, op)
			}
		}
	}
	// Anchors of the figure, as metrics.
	b.ReportMetric(pm.CurrentMA(cpu.Compute, cpu.MaxPoint), "compute@206_mA")
	b.ReportMetric(pm.CurrentMA(cpu.Comm, cpu.MinPoint), "comm@59_mA")
	_ = sink
}

// BenchmarkFig8Partitioning regenerates the partitioning table: three
// schemes with minimal-frequency assignment.
func BenchmarkFig8Partitioning(b *testing.B) {
	p := core.DefaultParams()
	var schemes []core.Partition
	for i := 0; i < b.N; i++ {
		schemes = p.TwoNodeSchemes()
	}
	b.ReportMetric(schemes[0].Stages[0].Compute.FreqMHz, "s1node1_MHz")
	b.ReportMetric(schemes[0].Stages[1].Compute.FreqMHz, "s1node2_MHz")
	b.ReportMetric(schemes[1].Stages[0].Compute.FreqMHz, "s2node1_MHz")
	b.ReportMetric(schemes[1].Stages[1].Compute.FreqMHz, "s2node2_MHz")
	b.ReportMetric(schemes[2].Stages[1].Compute.FreqMHz, "s3node2_MHz")
}

// benchExperiment runs one of the paper's experiments per iteration and
// reports the reproduced battery life and workload.
func benchExperiment(b *testing.B, id core.ID) {
	p := core.DefaultParams()
	var o core.Outcome
	for i := 0; i < b.N; i++ {
		o = simulate(b, core.Spec{ID: id, Params: p})
	}
	b.ReportMetric(o.BatteryLifeH, "hours")
	b.ReportMetric(core.PaperHours(id), "hours_paper")
	b.ReportMetric(float64(o.Frames), "frames")
	b.ReportMetric(float64(core.PaperFrames(id)), "frames_paper")
}

// Experiments of §6 (Fig 10's bars plus the two no-I/O preliminaries).
func BenchmarkExp0A(b *testing.B)                 { benchExperiment(b, core.Exp0A) }
func BenchmarkExp0B(b *testing.B)                 { benchExperiment(b, core.Exp0B) }
func BenchmarkExp1Baseline(b *testing.B)          { benchExperiment(b, core.Exp1) }
func BenchmarkExp1ADVSDuringIO(b *testing.B)      { benchExperiment(b, core.Exp1A) }
func BenchmarkExp2Partitioning(b *testing.B)      { benchExperiment(b, core.Exp2) }
func BenchmarkExp2ADistributedDVSIO(b *testing.B) { benchExperiment(b, core.Exp2A) }
func BenchmarkExp2BFailureRecovery(b *testing.B)  { benchExperiment(b, core.Exp2B) }
func BenchmarkExp2CNodeRotation(b *testing.B)     { benchExperiment(b, core.Exp2C) }

// BenchmarkFig10Summary runs the whole Fig 10 suite and reports each
// normalized battery-life ratio.
func BenchmarkFig10Summary(b *testing.B) {
	p := core.DefaultParams()
	var outs []core.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		if outs, err = core.RunSuite(core.Fig10Experiments, p, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, o := range outs {
		b.ReportMetric(o.Rnorm*100, "Rnorm_"+string(o.ID)+"_pct")
	}
	if s := report.Fig10(outs); len(s) == 0 {
		b.Fatal("empty figure")
	}
}

// BenchmarkAblationBatteryModels reruns the calibrated suite's key pair
// (baseline vs DVS-during-I/O) under each battery model: only the
// two-well model reproduces the paper's 24% recovery gain, and the ideal
// battery erases the case study's story.
func BenchmarkAblationBatteryModels(b *testing.B) {
	cap := core.DefaultItsyBatteryParams().CapacityMAh
	models := []struct {
		name string
		mk   func() battery.Model
	}{
		{"ideal", func() battery.Model { return battery.NewIdeal(cap) }},
		{"peukert", func() battery.Model { return battery.NewPeukert(cap, 65, 1.2) }},
		{"kibam", func() battery.Model { return battery.NewKiBaM(cap, 0.1, 1e-3) }},
		{"twowell", func() battery.Model { return core.DefaultItsyBattery() }},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			p := core.DefaultParams()
			p.Battery = m.mk
			var gain float64
			for i := 0; i < b.N; i++ {
				t1 := simulate(b, core.Spec{ID: core.Exp1, Params: p}).BatteryLifeH
				t1A := simulate(b, core.Spec{ID: core.Exp1A, Params: p}).BatteryLifeH
				gain = t1A / t1
			}
			b.ReportMetric(gain*100, "dvs_io_gain_pct")
			b.ReportMetric(124, "gain_paper_pct")
		})
	}
}

// BenchmarkAblationRotationPeriod sweeps the rotation period of
// experiment 2C (the paper rotates every 100 frames).
func BenchmarkAblationRotationPeriod(b *testing.B) {
	for _, period := range []int{2, 10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("every%d", period), func(b *testing.B) {
			p := core.DefaultParams()
			p.RotationPeriod = period
			var o core.Outcome
			for i := 0; i < b.N; i++ {
				o = simulate(b, core.Spec{ID: core.Exp2C, Params: p})
			}
			b.ReportMetric(o.BatteryLifeH, "hours")
			b.ReportMetric(float64(o.NodeStats[0].Rotations), "rotations")
		})
	}
}

// BenchmarkAblationAckCost sweeps the per-transaction startup cost within
// the paper's 50–100 ms range; the recovery experiment pays it on every
// acknowledgment.
func BenchmarkAblationAckCost(b *testing.B) {
	for _, ms := range []float64{50, 70, 90, 100} {
		b.Run(fmt.Sprintf("%.0fms", ms), func(b *testing.B) {
			p := core.DefaultParams()
			p.Link.StartupS = ms / 1000
			var o core.Outcome
			for i := 0; i < b.N; i++ {
				o = simulate(b, core.Spec{ID: core.Exp2B, Params: p})
			}
			b.ReportMetric(o.BatteryLifeH, "hours")
			b.ReportMetric(float64(o.Frames), "frames")
		})
	}
}

// BenchmarkAblationSerialGoodput sweeps the link goodput: the paper's
// 10 KB/s serial port makes the workload communication-bound; a faster
// interconnect shifts the balance toward distributed partitioning.
func BenchmarkAblationSerialGoodput(b *testing.B) {
	for _, kbps := range []float64{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("%.0fKBps", kbps), func(b *testing.B) {
			p := core.DefaultParams()
			p.Link.GoodputKBps = kbps
			partitionable := true
			if _, err := p.BestTwoNodeScheme(); err != nil {
				// Below ≈8 KB/s even the best split cannot meet D: the
				// network is saturated (§5.3's second concern).
				partitionable = false
			}
			var r2, r1a float64
			for i := 0; i < b.N; i++ {
				t1 := simulate(b, core.Spec{ID: core.Exp1, Params: p}).BatteryLifeH
				r1a = simulate(b, core.Spec{ID: core.Exp1A, Params: p}).BatteryLifeH / t1
				if partitionable {
					r2 = simulate(b, core.Spec{ID: core.Exp2, Params: p}).BatteryLifeH / 2 / t1
				}
			}
			b.ReportMetric(r2*100, "Rnorm2_pct")
			b.ReportMetric(r1a*100, "Rnorm1A_pct")
		})
	}
}

// BenchmarkAblationFeasibilityTol verifies the sensitivity of the Fig 8
// frequency assignment to the feasibility tolerance (DESIGN.md's single
// calibration knob).
func BenchmarkAblationFeasibilityTol(b *testing.B) {
	for _, tol := range []float64{0, 0.01, 0.02, 0.05} {
		b.Run(fmt.Sprintf("tol%.0f%%", tol*100), func(b *testing.B) {
			p := core.DefaultParams()
			p.FeasibilityTol = tol
			var s core.Partition
			for i := 0; i < b.N; i++ {
				s = p.TwoNodeSchemes()[0]
			}
			b.ReportMetric(s.Stages[1].Compute.FreqMHz, "node2_MHz")
		})
	}
}

// BenchmarkAblationPipelineWidth generalizes the paper beyond two nodes:
// the ATR chain split over N = 1, 2, 3, 4 nodes, each with node rotation,
// reporting the normalized battery-life ratio. More batteries spread the
// load but pay more internode I/O — the tension of §5.3.
func BenchmarkAblationPipelineWidth(b *testing.B) {
	p := core.DefaultParams()
	t1 := simulate(b, core.Spec{ID: core.Exp1, Params: p}).BatteryLifeH
	cuts := map[int][]atr.Block{
		2: {atr.BlockDetect, atr.BlockDistance},
		3: {atr.BlockDetect, atr.BlockIFFT, atr.BlockDistance},
		4: {atr.BlockDetect, atr.BlockFFT, atr.BlockIFFT, atr.BlockDistance},
	}
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("nodes%d", n), func(b *testing.B) {
			pt := p.Plan(atr.Chain(cuts[n]...), false)
			if !pt.Feasible {
				b.Skip("split infeasible")
			}
			spec := core.Spec{Stages: core.StagesFromPartition(pt, true), Label: fmt.Sprintf("%d-node", n), Params: p}
			var o core.Outcome
			for i := 0; i < b.N; i++ {
				o = simulate(b, spec)
			}
			b.ReportMetric(o.BatteryLifeH, "hours")
			b.ReportMetric(o.BatteryLifeH/float64(n)/t1*100, "Rnorm_pct")
		})
	}
}

// BenchmarkAblationFrameBuffering evaluates the buffer-based DVS of Im et
// al. [4] on the multi-target ATR stream (1–3 targets per frame at a
// doubled frame delay): minimum sustained speed vs buffer size.
func BenchmarkAblationFrameBuffering(b *testing.B) {
	p := core.DefaultParams()
	prof := p.Profile
	works := make([]float64, 200)
	for i := range works {
		works[i] = prof.MultiRefSeconds(atr.FullSpan, 1+(i*7919)%3)
	}
	slot := 2*p.FrameDelayS - (p.Link.TxTime(prof.InputKB) + p.Link.TxTime(0.1))
	for _, buffer := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("buffer%d", buffer), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s = governor.BufferedMinSpeed(works, slot, buffer)
			}
			b.ReportMetric(s*cpu.MaxPoint.FreqMHz, "required_MHz")
		})
	}
}

// BenchmarkGovernorDecide measures each policy's per-frame decision — the
// governor subsystem's hot path, entered once per node per frame. The
// observation cycles through three workload regimes so adaptive policies
// exercise their full decision logic, not a memoized steady state.
func BenchmarkGovernorDecide(b *testing.B) {
	obs := make([]governor.Observation, 3)
	for i, refS := range []float64{0.69, 0.9, 0.5} {
		op := cpu.Table[5+i]
		proc := cpu.ScaledTime(refS, op)
		obs[i] = governor.Observation{
			Frame: i, DeadlineS: 2.3,
			ProcS: proc, CommS: 0.94, SlackS: 2.3 - proc - 0.94,
			RefS: refS, QueueIn: i % 2, SoC: 0.8,
			Point: op, RoleCompute: op,
		}
	}
	for _, name := range governor.Names {
		b.Run(name, func(b *testing.B) {
			g := governor.MustNew(governor.Spec{Name: name})
			var op cpu.OperatingPoint
			for i := 0; i < b.N; i++ {
				op = g.Decide(obs[i%len(obs)])
			}
			b.ReportMetric(op.FreqMHz, "last_MHz")
		})
	}
}

// BenchmarkGovernedFrameLoop measures the whole-system cost of closing
// the DVS loop: the experiment-2 pipeline run for a bounded frame count,
// ungoverned vs governed by each policy. The delta over "none" is the
// per-frame overhead of measurement, decision and accounting.
func BenchmarkGovernedFrameLoop(b *testing.B) {
	p := core.DefaultParams()
	stages := []core.StageConfig{}
	pt, err := p.BestTwoNodeScheme()
	if err != nil {
		b.Fatal(err)
	}
	stages = core.StagesFromPartition(pt, true)
	for _, name := range append([]string{""}, governor.Names...) {
		label := name
		if label == "" {
			label = "none"
		}
		b.Run(label, func(b *testing.B) {
			spec := core.Spec{Stages: stages, Label: "bench", Params: p, Frames: 200}
			spec.Params.RotationPeriod = 0
			spec.Params.Governor = governor.Spec{Name: name}
			var o core.Outcome
			for i := 0; i < b.N; i++ {
				o = simulate(b, spec)
			}
			b.ReportMetric(float64(o.Frames), "frames")
		})
	}
}

// BenchmarkSimKernel measures raw event throughput of the DES substrate.
func BenchmarkSimKernel(b *testing.B) {
	p := core.DefaultParams()
	var fired uint64
	for i := 0; i < b.N; i++ {
		o := simulate(b, core.Spec{ID: core.Exp1, Params: p})
		_ = o
	}
	_ = fired
}

// BenchmarkAblationIrDALink swaps the serial port for the Itsy's infrared
// port (§4.1's other I/O option): slower goodput and costlier
// transactions shrink the partitioner's budget and the distributed
// experiments' returns.
func BenchmarkAblationIrDALink(b *testing.B) {
	for _, link := range []struct {
		name string
		lp   serial.LinkParams
	}{
		{"serial", serial.DefaultLink()},
		{"irda", serial.IrDALink()},
	} {
		b.Run(link.name, func(b *testing.B) {
			p := core.DefaultParams()
			p.Link = link.lp
			feasible := true
			if _, err := p.BestTwoNodeScheme(); err != nil {
				feasible = false
			}
			var t1, t2 float64
			for i := 0; i < b.N; i++ {
				t1 = simulate(b, core.Spec{ID: core.Exp1, Params: p}).BatteryLifeH
				if feasible {
					t2 = simulate(b, core.Spec{ID: core.Exp2, Params: p}).BatteryLifeH
				}
			}
			b.ReportMetric(t1, "T1_hours")
			b.ReportMetric(t2, "T2_hours")
		})
	}
}

// BenchmarkRunTelemetry measures the full telemetry pipeline — bounded
// run, record collection, ordered per-source merge, JSONL encode — into
// a discarding writer. With the pooled record slabs and the hand-rolled
// encoder, steady-state iterations recycle their working set through
// the process-wide pools: allocs/op here is the zero-allocation claim's
// regression gate (run with -benchmem).
func BenchmarkRunTelemetry(b *testing.B) {
	p := core.DefaultParams()
	const windowS = 600
	b.ReportAllocs()
	records := 0
	for i := 0; i < b.N; i++ {
		out, err := core.Simulate(context.Background(), core.Spec{ID: core.Exp2D, Params: p, UntilS: windowS}, core.Sinks{Log: io.Discard, Telemetry: true})
		if err != nil {
			b.Fatal(err)
		}
		records = out.Records
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkMonteCarloRun measures one Monte Carlo run — a cold 600 s
// telemetry run of 2D whose fault stream is reseeded at 150 s — the
// unit cost of a thousand-seed study.
func BenchmarkMonteCarloRun(b *testing.B) {
	spec := core.Spec{ID: core.Exp2D, Params: core.DefaultParams(), UntilS: 600}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, res, err := core.MonteCarlo(spec, 150, []uint64{uint64(i) + 1}, 1)
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// simulate runs a spec with no sinks, failing the benchmark on error.
func simulate(b *testing.B, s core.Spec) core.Outcome {
	b.Helper()
	out, err := core.Simulate(context.Background(), s, core.Sinks{})
	if err != nil {
		b.Fatal(err)
	}
	return out
}
