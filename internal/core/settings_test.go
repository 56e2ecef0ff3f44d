package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dvsim/internal/fault"
	"dvsim/internal/governor"
)

// settingsWindowS is the simulated window of each run in
// TestSettingsTableExact: a few hundred frames, past the first 2C
// rotation at the default period of 100.
const settingsWindowS = 600

// TestSettingsTableExact holds the experiments table to the engine.
// Every experiment runs once as a base and once per setting perturbed,
// straight through Simulate, so no front end's CheckSettings refuses
// the unread ones. A setting the table says the experiment does not
// read must leave the Outcome and the log byte-identical; one it
// reads must change one of them. The log is compared as well as
// the Outcome because it holds every event, not only the totals: a
// governor on experiment 1 adds govern records and leaves the summary
// table as it was.
func TestSettingsTableExact(t *testing.T) {
	catalog := loadSpec(t, "catalog.json")
	lossy := &fault.Scenario{Seed: 7, Links: []fault.LinkFault{{DropRate: 0.1}}}
	perturb := []struct {
		s   Setting
		set func(*Spec)
	}{
		{Rotation, func(s *Spec) { s.Params.RotationPeriod = 5 }},
		{Governor, func(s *Spec) { s.Params.Governor = governor.Spec{Name: "interval"} }},
		{Faults, func(s *Spec) { s.Params.Faults = lossy }},
		{Frames, func(s *Spec) { s.Frames = 20 }},
		{FrameDelay, func(s *Spec) { s.Params.FrameDelayS = 2.5 }},
		{Assertions, func(s *Spec) { s.Params.Assertions = catalog }},
	}
	run := func(s Spec) (Outcome, []byte) {
		t.Helper()
		var log bytes.Buffer
		out := mustSimulate(t, s, Sinks{Log: &log})
		return out, log.Bytes()
	}
	for _, id := range append(AllExperiments, Exp3A) {
		base := Spec{ID: id, Params: DefaultParams(), UntilS: settingsWindowS}
		if id == Exp3A {
			// 3A needs a governor; perturbing it swaps the policy.
			base.Params.Governor = governor.Spec{Name: "pid"}
		}
		baseOut, baseLog := run(base)
		reads := experiments[id].reads
		for _, pt := range perturb {
			s := base
			pt.set(&s)
			out, log := run(s)
			changed := !reflect.DeepEqual(out, baseOut) || !bytes.Equal(log, baseLog)
			if want := reads&pt.s != 0; changed != want {
				t.Errorf("experiment %s, %s perturbed: output changed %v, but the table says read %v", id, pt.s, changed, want)
			}
		}
	}
}

// TestCheckSettings: the rule every front end calls names the
// experiment and the first setting it does not read, passes a setting
// some experiment of a suite reads, and refuses an unknown experiment
// as plan does.
func TestCheckSettings(t *testing.T) {
	for _, c := range []struct {
		set  Setting
		ids  []ID
		want string // "" for no error
	}{
		{Rotation, []ID{Exp1}, "experiment 1 does not read rotation"},
		{Rotation | Governor, []ID{Exp2C}, ""},
		{Governor | FrameDelay, []ID{Exp0A}, "experiment 0A does not read governor"},
		{Frames, []ID{Exp0B}, "experiment 0B does not read frames"},
		{Assertions, []ID{Exp0A}, ""},
		{Faults, []ID{Exp0A, Exp0B}, "no experiment of [0A 0B] reads faults"},
		{Rotation | Faults | Governor | Frames | FrameDelay | Assertions, AllExperiments, ""},
		{0, []ID{"9Z"}, `unknown experiment "9Z"`},
	} {
		err := CheckSettings(c.set, c.ids...)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v reading %s: %v", c.ids, c.set, err)
		case c.want != "" && (!errors.Is(err, ErrBadSpec) || !strings.HasSuffix(err.Error(), c.want)):
			t.Errorf("%v reading %s: error %v, want %q wrapping ErrBadSpec", c.ids, c.set, err, c.want)
		}
	}
	for id, x := range experiments {
		if id.Nodes() != x.nodes || x.nodes == 0 {
			t.Errorf("experiment %s: Nodes() = %d, table %d", id, id.Nodes(), x.nodes)
		}
	}
}
