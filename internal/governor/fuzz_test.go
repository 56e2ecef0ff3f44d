package governor

import "testing"

// FuzzGovernorSpec feeds arbitrary text through ParseSpec: a rejected
// spec is an error, never a panic, and an accepted one constructs and
// renders back, through String, to text that parses to the same spec.
func FuzzGovernorSpec(f *testing.F) {
	for _, seed := range []string{
		"", "static", "interval", "pid", "buffer",
		"pid:kp=0.5,ki=0.1", "interval:alpha=0.3,margin_s=0.02", "buffer:hi=3",
		"pid:kp=-0,imax=0,target_s=1e-9", "buffer:hi=9.2e18",
		"interval:alpha=2", "pid:imax=-1", "buffer:hi=0", "buffer:hi=1e300",
		"pid:kp=NaN", "interval:margin_s=Inf", "turbo", "pid:kp", "static:alpha=0.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		g, err := s.New()
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted %v, New: %v", text, s, err)
		}
		if (g == nil) == s.Enabled() {
			t.Fatalf("ParseSpec(%q) = %v constructed %v", text, s, g)
		}
		if !s.Enabled() {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", text, s.String(), err)
		}
		if !sameSpec(s, back) {
			t.Fatalf("%q renders as %q, which parses to %v", text, s.String(), back)
		}
	})
}

// sameSpec compares two specs by value; a nil and an empty tuning map
// select the same defaults.
func sameSpec(a, b Spec) bool {
	if a.Name != b.Name || len(a.Tuning) != len(b.Tuning) {
		return false
	}
	for k, v := range a.Tuning {
		if w, ok := b.Tuning[k]; !ok || w != v {
			return false
		}
	}
	return true
}
