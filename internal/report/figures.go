package report

import (
	"fmt"
	"strings"

	"dvsim/internal/atr"
	"dvsim/internal/core"
	"dvsim/internal/cpu"
	"dvsim/internal/node"
	"dvsim/internal/serial"
)

// Fig6 renders the ATR performance profile: block times at the reference
// clock and the payload each hop carries, with the serial transfer time
// the link model assigns it.
func Fig6(prof atr.Profile, link serial.LinkParams) string {
	var b strings.Builder
	b.WriteString("Fig 6 — Performance profile of ATR on Itsy\n\n")
	t := NewTable("hop / block", "payload (KB)", "tx time (s)", "compute @206.4 (s)")
	t.Add("host -> node (frame)", f2(prof.InputKB), f2(link.TxTime(prof.InputKB)), "")
	for _, blk := range atr.Blocks {
		span := atr.NewSpan(blk, blk)
		t.Add(blk.String(), "", "", f2(prof.BlockRefS[blk]))
		out := prof.OutKB(span)
		label := "-> next block"
		if blk == atr.BlockDistance {
			label = "-> host (result)"
		}
		t.Add("  "+label, f2(out), f2(link.TxTime(out)), "")
	}
	t.Add("whole algorithm (amortized)", "", "", f2(prof.WholeRefS))
	b.WriteString(t.String())
	b.WriteString(fmt.Sprintf("\nserial link: %.1f kbps nominal, %.0f kbps measured goodput, %.0f ms startup per transaction\n",
		link.NominalKbps, link.GoodputKBps*8, link.StartupS*1000))
	return b.String()
}

// Fig7 renders the power profile: current draw per mode over the 11
// operating points.
func Fig7(pm *cpu.PowerModel) string {
	var b strings.Builder
	b.WriteString("Fig 7 — Power profile of ATR on Itsy (net current draw, mA)\n\n")
	t := NewTable("freq (MHz)", "volt (V)", "idle", "communication", "computation")
	for _, op := range cpu.Table {
		t.Add(
			fmt.Sprintf("%.1f", op.FreqMHz),
			fmt.Sprintf("%.3f", op.VoltageV),
			f1(pm.CurrentMA(cpu.Idle, op)),
			f1(pm.CurrentMA(cpu.Comm, op)),
			f1(pm.CurrentMA(cpu.Compute, op)),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig8 renders the three two-node partitioning schemes with their derived
// clock rates and communication payloads.
func Fig8(p core.Params) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Fig 8 — Two-node partitioning schemes (D = %.1f s)\n\n", p.FrameDelayS))
	t := NewTable("scheme (Node1) (Node2)", "Node1 clock (MHz)", "Node2 clock (MHz)",
		"Node1 payload (KB)", "Node2 payload (KB)")
	for _, s := range p.TwoNodeSchemes() {
		name := fmt.Sprintf("(%s) (%s)", s.Stages[0].Span, s.Stages[1].Span)
		n1 := fmt.Sprintf("%.1f", s.Stages[0].Compute.FreqMHz)
		if !s.Stages[0].Feasible {
			n1 = fmt.Sprintf("> 206.4 (needs %.0f)", s.Stages[0].RequiredMHz)
		}
		n2 := fmt.Sprintf("%.1f", s.Stages[1].Compute.FreqMHz)
		if !s.Stages[1].Feasible {
			n2 = fmt.Sprintf("> 206.4 (needs %.0f)", s.Stages[1].RequiredMHz)
		}
		t.Add(name, n1, n2, f1(s.PayloadKB(0)), f1(s.PayloadKB(1)))
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig10 renders the experiment summary: absolute and normalized battery
// life with the normalized ratio annotated, as a horizontal bar chart.
func Fig10(outs []core.Outcome) string {
	var b strings.Builder
	b.WriteString("Fig 10 — Experiment results\n\n")
	maxH := 0.0
	for _, o := range outs {
		if o.BatteryLifeH > maxH {
			maxH = o.BatteryLifeH
		}
	}
	const width = 36
	for _, o := range outs {
		b.WriteString(fmt.Sprintf("(%s) %s\n", o.ID, o.Label))
		b.WriteString(fmt.Sprintf("   absolute   %-*s %6.2f h\n", width, Bar(o.BatteryLifeH, maxH, width), o.BatteryLifeH))
		b.WriteString(fmt.Sprintf("   normalized %-*s %6.2f h  (%.0f%%)\n\n", width, Bar(o.TnormH, maxH, width), o.TnormH, o.Rnorm*100))
	}
	return b.String()
}

// Compare renders measured-vs-paper for a suite run.
func Compare(outs []core.Outcome) string {
	var b strings.Builder
	b.WriteString("Reproduction vs paper\n\n")
	t := NewTable("exp", "technique", "T model (h)", "T paper (h)", "ratio",
		"F model", "F paper", "Rnorm model", "Rnorm paper")
	paperRnorm := map[core.ID]string{
		core.Exp1: "100%", core.Exp1A: "124%", core.Exp2: "115%",
		core.Exp2A: "118%", core.Exp2B: "128%", core.Exp2C: "145%",
	}
	for _, o := range outs {
		ph := core.PaperHours(o.ID)
		// Experiments beyond the paper (2D) have no published figures;
		// leave their paper columns blank.
		paperH, paperF, ratio := "", "", ""
		if ph > 0 {
			paperH = f2(ph)
			paperF = fmt.Sprintf("%d", core.PaperFrames(o.ID))
			ratio = fmt.Sprintf("%.2f", o.BatteryLifeH/ph)
		}
		rn := ""
		if o.Rnorm > 0 && paperRnorm[o.ID] != "" {
			rn = fmt.Sprintf("%.0f%%", o.Rnorm*100)
		}
		t.Add(string(o.ID), o.Label, f2(o.BatteryLifeH), paperH, ratio,
			o.Frames, paperF, rn, paperRnorm[o.ID])
	}
	b.WriteString(t.String())
	return b.String()
}

// Timeline renders per-node mode traces as a text timing diagram in the
// style of the paper's Figs 2, 3 and 9: one row per node, one column per
// time bucket, '.' idle, '~' communication, '#' computation.
func Timeline(names []string, traces [][]node.ModeSpan, t0, t1 float64, width int) string {
	if width <= 0 || t1 <= t0 {
		return ""
	}
	var b strings.Builder
	bucket := (t1 - t0) / float64(width)
	b.WriteString(fmt.Sprintf("timeline %.1f–%.1f s  (each column = %.2f s;  . idle  ~ comm  # compute)\n", t0, t1, bucket))
	// Time axis with a tick every ten columns.
	axis := make([]byte, width)
	for i := range axis {
		axis[i] = ' '
	}
	for i := 0; i < width; i += 10 {
		axis[i] = '|'
	}
	b.WriteString(strings.Repeat(" ", 8) + string(axis) + "\n")
	for ni, spans := range traces {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, sp := range spans {
			lo := int((float64(sp.Start) - t0) / bucket)
			hi := int((float64(sp.End) - t0) / bucket)
			if float64(sp.End) > t0+float64(hi)*bucket {
				hi++
			}
			for i := lo; i < hi && i < width; i++ {
				if i < 0 {
					continue
				}
				ch := modeChar(sp.Mode)
				// Computation dominates communication dominates idle
				// within a bucket.
				if rank(ch) > rank(row[i]) {
					row[i] = ch
				}
			}
		}
		name := fmt.Sprintf("node%-3d ", ni+1)
		if ni < len(names) {
			name = pad(names[ni], 7) + " "
		}
		b.WriteString(name + string(row) + "\n")
	}
	return b.String()
}

func modeChar(m cpu.Mode) byte {
	switch m {
	case cpu.Comm:
		return '~'
	case cpu.Compute:
		return '#'
	default:
		return '.'
	}
}

func rank(c byte) int {
	switch c {
	case '#':
		return 3
	case '~':
		return 2
	case '.':
		return 1
	default:
		return 0
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// EnergyBreakdown renders where each node's charge went, per mode — the
// paper's §4.4 observation that slow serial transactions make I/O energy
// a primary optimization target, in numbers.
func EnergyBreakdown(outs []core.Outcome) string {
	var b strings.Builder
	b.WriteString("Energy breakdown by mode (mAh at the battery)\n\n")
	t := NewTable("exp", "node", "idle", "comm", "compute", "total", "comm share")
	for _, o := range outs {
		for _, ns := range o.NodeStats {
			total := ns.IdleMAh + ns.CommMAh + ns.ComputeMAh
			share := ""
			if total > 0 {
				share = fmt.Sprintf("%.0f%%", ns.CommMAh/total*100)
			}
			t.Add(string(o.ID), ns.Name, f1(ns.IdleMAh), f1(ns.CommMAh), f1(ns.ComputeMAh), f1(total), share)
		}
	}
	b.WriteString(t.String())
	return b.String()
}

// MarkdownCompare renders the paper-vs-model comparison as a Markdown
// table — the exact body of EXPERIMENTS.md's headline table, so the
// document regenerates mechanically (`paperbench -fig md`).
func MarkdownCompare(outs []core.Outcome) string {
	var b strings.Builder
	b.WriteString("| exp | technique | T model (h) | T paper (h) | ratio | F model | F paper | Rnorm model | Rnorm paper |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	paperRnorm := map[core.ID]string{
		core.Exp1: "100%", core.Exp1A: "124%", core.Exp2: "115%",
		core.Exp2A: "118%", core.Exp2B: "128%", core.Exp2C: "145%",
	}
	for _, o := range outs {
		ph := core.PaperHours(o.ID)
		paperH, paperF, ratio, rn := "—", "—", "—", "—"
		if ph > 0 {
			paperH = fmt.Sprintf("%.2f", ph)
			paperF = fmt.Sprintf("%d", core.PaperFrames(o.ID))
			ratio = fmt.Sprintf("%.2f", o.BatteryLifeH/ph)
		}
		if paperRnorm[o.ID] != "" {
			rn = fmt.Sprintf("%.0f%%", o.Rnorm*100)
		} else {
			paperRnorm[o.ID] = "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %.2f | %s | %s | %d | %s | %s | %s |\n",
			o.ID, o.Label, o.BatteryLifeH, paperH, ratio,
			o.Frames, paperF, rn, paperRnorm[o.ID])
	}
	return b.String()
}
