// Package cpu models the StrongARM SA-1100 processor of the Itsy pocket
// computer as used in the paper: 11 discrete frequency levels from 59 to
// 206.4 MHz with corresponding core voltages (the paper's Fig 7 axis), a
// linear performance model (execution time scales inversely with clock
// rate, §4.3), and a per-mode current model fitted to every current value
// the paper reports (Fig 7 and §6.3/§6.5).
//
// The processor has three modes of operation — idle, communication and
// computation (§4.4) — each with its own current-vs-frequency curve.
package cpu

import (
	"fmt"
	"math"
	"sort"
)

// OperatingPoint is one DVS setting: a clock frequency with the minimum
// core voltage that sustains it.
type OperatingPoint struct {
	// FreqMHz is the clock frequency in MHz.
	FreqMHz float64
	// VoltageV is the core supply voltage in volts.
	VoltageV float64
}

func (op OperatingPoint) String() string {
	return fmt.Sprintf("%.1f MHz @ %.3f V", op.FreqMHz, op.VoltageV)
}

// Table is the SA-1100 frequency/voltage table from the paper's Fig 7:
// 11 levels from 59 MHz to 206.4 MHz. (The hardware exposes 43 voltage
// levels; the paper's figure pairs each frequency with the voltage
// actually used, which is what matters for the power model.)
var Table = []OperatingPoint{
	{59.0, 0.919},
	{73.7, 0.978},
	{88.5, 1.067},
	{103.2, 1.067},
	{118.0, 1.126},
	{132.7, 1.156},
	{147.5, 1.156},
	{162.2, 1.215},
	{176.9, 1.304},
	{191.7, 1.363},
	{206.4, 1.393},
}

// Convenient named levels used throughout the paper.
var (
	// MinPoint is the slowest level, 59 MHz — used for DVS during I/O.
	MinPoint = Table[0]
	// MaxPoint is the fastest level, 206.4 MHz — the baseline clock.
	MaxPoint = Table[len(Table)-1]
)

// PointAt returns the operating point with the given frequency.
// It panics if f is not one of the 11 table frequencies; experiment
// configurations are static, so a typo should fail loudly.
func PointAt(fMHz float64) OperatingPoint {
	for _, op := range Table {
		//lint:allow floateq exact table lookup: both sides are stored literals from the paper's frequency table, never arithmetic results
		if op.FreqMHz == fMHz {
			return op
		}
	}
	panic(fmt.Sprintf("cpu: no operating point at %v MHz", fMHz))
}

// Index returns the table index of the operating point, or -1.
func Index(op OperatingPoint) int {
	for i, t := range Table {
		if t == op {
			return i
		}
	}
	return -1
}

// NextAbove returns the slowest table point with frequency ≥ fMHz.
// ok is false when fMHz exceeds the maximum frequency (the workload is
// infeasible, like Node1 of the paper's third partitioning scheme which
// would need ~380 MHz).
func NextAbove(fMHz float64) (op OperatingPoint, ok bool) {
	i := sort.Search(len(Table), func(i int) bool { return Table[i].FreqMHz >= fMHz })
	if i == len(Table) {
		return OperatingPoint{}, false
	}
	return Table[i], true
}

// Mode is a processor activity mode with a distinct power curve (§4.4).
type Mode int

// The three modes of operation observed on Itsy.
const (
	// Idle: no I/O and no computation workload.
	Idle Mode = iota
	// Comm: sending or receiving on the serial port.
	Comm
	// Compute: executing the ATR algorithm.
	Compute
	// NumModes is the number of modes; per-mode tables are arrays of
	// this length indexed by Mode.
	NumModes
)

func (m Mode) String() string {
	switch m {
	case Idle:
		return "idle"
	case Comm:
		return "communication"
	case Compute:
		return "computation"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all modes in display order (matching Fig 7's legend).
var Modes = []Mode{Idle, Comm, Compute}

// PowerModel gives the net current draw of one Itsy node as a function of
// operating point and mode. Currents follow I = base + slope·f·V², the
// shape implied by CMOS dynamic power (§1: P ∝ f·V²) on top of a static
// platform draw. Coefficients are fitted to the currents the paper states:
//
//	computation: 130 mA at 206.4 MHz (Fig 7 top of range)
//	communication: 40 mA at 59 MHz, ≈55 mA at 103.2 MHz, 110 mA at 206.4 MHz
//	idle: ≈30 mA at the bottom of the range
//
// All currents are in mA at the 4 V battery.
type PowerModel struct {
	// Base and Slope per mode: current = Base[m] + Slope[m]·f·V²,
	// with f in MHz and V in volts.
	Base  [NumModes]float64
	Slope [NumModes]float64
}

// DefaultPowerModel is the model calibrated to the paper's reported
// currents (see package comment).
func DefaultPowerModel() *PowerModel {
	return &PowerModel{
		Base: [NumModes]float64{
			Idle:    25.0,
			Comm:    30.0,
			Compute: 38.0,
		},
		Slope: [NumModes]float64{
			Idle:    0.050,
			Comm:    0.200,
			Compute: 0.230,
		},
	}
}

// CurrentMA returns the battery current draw in mA for mode m at op.
func (pm *PowerModel) CurrentMA(m Mode, op OperatingPoint) float64 {
	return pm.Base[m] + pm.Slope[m]*op.FreqMHz*op.VoltageV*op.VoltageV
}

// PowerW returns the power draw in watts at the nominal 4 V battery.
func (pm *PowerModel) PowerW(m Mode, op OperatingPoint) float64 {
	return BatteryVoltage * pm.CurrentMA(m, op) / 1000
}

// BatteryVoltage is the Itsy pack's nominal voltage (§4.1: 4 V lithium-ion).
const BatteryVoltage = 4.0

// ScaledTime converts a workload measured at the reference point (the
// paper profiles everything at 206.4 MHz) to execution time at op, using
// the paper's linear performance model (§4.3: "the performance degrades
// linearly with the clock rate").
func ScaledTime(refSeconds float64, op OperatingPoint) float64 {
	return refSeconds * MaxPoint.FreqMHz / op.FreqMHz
}

// MinFreqFor returns the slowest operating point that completes refSeconds
// of 206.4 MHz-work within budget seconds. ok is false if even the fastest
// point cannot (the required frequency with no rounding is also returned,
// for reporting "would need ~380 MHz" cases).
func MinFreqFor(refSeconds, budget float64) (op OperatingPoint, requiredMHz float64, ok bool) {
	if refSeconds <= 0 {
		return MinPoint, 0, true
	}
	if budget <= 0 {
		return OperatingPoint{}, math.Inf(1), false
	}
	requiredMHz = MaxPoint.FreqMHz * refSeconds / budget
	op, ok = NextAbove(requiredMHz)
	return op, requiredMHz, ok
}

// CPU is the dynamic state of one node's processor: its current operating
// point and mode. It accumulates no time itself; the node runtime drives
// transitions and asks the power model for the resulting current.
type CPU struct {
	pm   *PowerModel
	op   OperatingPoint
	mode Mode

	// SwitchLatency is the cost of a frequency/voltage change, in seconds.
	// The SA-1100's clock transition is tens of microseconds; the paper
	// treats it as free, so the default is zero, but experiments can set
	// it to study sensitivity.
	SwitchLatency float64

	switches int
}

// New returns a CPU at the given initial operating point, idle, using the
// supplied power model (nil selects DefaultPowerModel).
func New(pm *PowerModel, op OperatingPoint) *CPU {
	if pm == nil {
		pm = DefaultPowerModel()
	}
	return &CPU{pm: pm, op: op, mode: Idle}
}

// Point returns the current operating point.
func (c *CPU) Point() OperatingPoint { return c.op }

// Mode returns the current activity mode.
func (c *CPU) Mode() Mode { return c.mode }

// Model returns the CPU's power model.
func (c *CPU) Model() *PowerModel { return c.pm }

// Switches returns how many operating-point changes have occurred.
func (c *CPU) Switches() int { return c.switches }

// SetPoint changes the operating point, returning the transition latency
// the caller must account for (0 unless SwitchLatency is set).
func (c *CPU) SetPoint(op OperatingPoint) float64 {
	if op == c.op {
		return 0
	}
	c.op = op
	c.switches++
	return c.SwitchLatency
}

// SetMode changes the activity mode.
func (c *CPU) SetMode(m Mode) { c.mode = m }

// CurrentMA returns the present battery current draw in mA.
func (c *CPU) CurrentMA() float64 { return c.pm.CurrentMA(c.mode, c.op) }

// ExecTime returns how long refSeconds of reference work takes at the
// current operating point.
func (c *CPU) ExecTime(refSeconds float64) float64 {
	return ScaledTime(refSeconds, c.op)
}
