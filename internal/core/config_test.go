package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"dvsim/internal/battery"
	"dvsim/internal/cpu"
)

// loadParams reads a platform config and converts it, the path dvsim
// -params and the manifest take.
func loadParams(r io.Reader) (Params, error) {
	pc, err := LoadPlatformConfig(r)
	if err != nil {
		return Params{}, err
	}
	return pc.Params()
}

func TestPlatformConfigRoundTrip(t *testing.T) {
	pc := DefaultPlatformConfig()
	var buf bytes.Buffer
	if err := SavePlatform(&buf, pc); err != nil {
		t.Fatal(err)
	}
	p, err := loadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped platform reproduces the baseline exactly.
	def := DefaultParams()
	got := mustSimulate(t, Spec{ID: Exp1, Params: p}, Sinks{}).BatteryLifeH
	if want := mustSimulate(t, Spec{ID: Exp1, Params: def}, Sinks{}).BatteryLifeH; got != want {
		t.Fatalf("round-tripped baseline %v h, default %v h", got, want)
	}
	// And the partition table.
	s1, _ := p.BestTwoNodeScheme()
	s2, _ := def.BestTwoNodeScheme()
	if s1.Stages[0].Compute != s2.Stages[0].Compute || s1.Stages[1].Compute != s2.Stages[1].Compute {
		t.Fatal("round-tripped partitioning differs")
	}
}

func TestLoadPlatformCustomValues(t *testing.T) {
	pc := DefaultPlatformConfig()
	pc.FrameDelayS = 4.6
	pc.Battery = battery.TwoWellParams{CapacityMAh: 400, AvailMAh: 40, FlowMA: 100, RecoverMA: 1}
	var buf bytes.Buffer
	if err := SavePlatform(&buf, pc); err != nil {
		t.Fatal(err)
	}
	p, err := loadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.FrameDelayS != 4.6 {
		t.Fatalf("frame delay %v", p.FrameDelayS)
	}
	b := p.Battery()
	if b.(*battery.TwoWell).CapacityMAh != 400 {
		t.Fatal("battery override lost")
	}
}

func TestLoadPlatformZeroBatterySolvesAnchors(t *testing.T) {
	pc := DefaultPlatformConfig()
	pc.Battery = battery.TwoWellParams{}
	var buf bytes.Buffer
	if err := SavePlatform(&buf, pc); err != nil {
		t.Fatal(err)
	}
	p, err := loadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultItsyBatteryParams()
	if got := p.Battery().(*battery.TwoWell).CapacityMAh; got != want.CapacityMAh {
		t.Fatalf("capacity %v, want solved %v", got, want.CapacityMAh)
	}
}

func TestLoadPlatformValidation(t *testing.T) {
	bad := func(mutate func(*PlatformConfig)) string {
		pc := DefaultPlatformConfig()
		mutate(&pc)
		var buf bytes.Buffer
		if err := SavePlatform(&buf, pc); err != nil {
			t.Fatal(err)
		}
		_, err := loadParams(&buf)
		if err == nil {
			return ""
		}
		return err.Error()
	}
	cases := map[string]func(*PlatformConfig){
		"frame_delay":  func(pc *PlatformConfig) { pc.FrameDelayS = 0 },
		"tolerance":    func(pc *PlatformConfig) { pc.FeasibilityTol = 0.9 },
		"link":         func(pc *PlatformConfig) { pc.Link.GoodputKBps = 0 },
		"power":        func(pc *PlatformConfig) { delete(pc.Power, "idle") },
		"power curve":  func(pc *PlatformConfig) { pc.Power["idle"] = PowerCurve{BaseMA: -1} },
		"battery":      func(pc *PlatformConfig) { pc.Battery.AvailMAh = pc.Battery.CapacityMAh * 2 },
		"rotation":     func(pc *PlatformConfig) { pc.RotationPeriod = -1 },
		"unknown mode": func(pc *PlatformConfig) { pc.Power["turbo"] = PowerCurve{BaseMA: 1} },
	}
	for name, mutate := range cases {
		if msg := bad(mutate); msg == "" {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestLoadPlatformRejectsUnknownFields(t *testing.T) {
	_, err := loadParams(strings.NewReader(`{"frame_delay_s": 2.3, "warp_drive": true}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestPlatformConfigPowerMatchesModel(t *testing.T) {
	pc := DefaultPlatformConfig()
	p, err := pc.Params()
	if err != nil {
		t.Fatal(err)
	}
	def := cpu.DefaultPowerModel()
	for _, m := range cpu.Modes {
		for _, op := range cpu.Table {
			if got, want := p.Power.CurrentMA(m, op), def.CurrentMA(m, op); got != want {
				t.Fatalf("%v at %v: %v vs %v", m, op, got, want)
			}
		}
	}
}
