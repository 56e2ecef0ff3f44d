package manifest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dvsim/internal/assert"
	"dvsim/internal/core"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/topology"
)

// Experiment is one fully resolved sweep point: everything a worker
// needs to run it, and everything the aggregation layer needs to label
// the result.
type Experiment struct {
	// Index is the position in the expanded sweep (0-based); Line is the
	// source line in the manifest.
	Index int
	Line  int
	// Label names the run in aggregated output.
	Label string
	// ID is set for paper-experiment lines (`experiment = "2C"`); Kind
	// and Graph for topology lines. Exactly one of the two is set.
	ID    core.ID
	Kind  string
	Graph *topology.Graph
	// Nodes is the simulated node count of this point.
	Nodes int
	// Frames bounds the run; 0 runs to battery exhaustion.
	Frames int
	// Shape records a topology line's builder arguments (e.g.
	// {"stages": 2, "width": 3}); nil for paper-experiment lines. It
	// is key material: two wide graphs with the same node count but
	// different shapes are different simulations.
	Shape map[string]int
	// Seeded marks a point expanded from the seeds column; Seed is the
	// manifest's seed token and RunSeed the derived value actually
	// planted in the fault scenario.
	Seeded  bool
	Seed    uint64
	RunSeed uint64
	// Params is the resolved platform, governor, fault and assertion
	// configuration.
	Params core.Params
	// Platform is the serializable form Params was resolved from —
	// the content the run cache keys on (Params itself holds closures
	// and cannot be hashed). See KeySpec.
	Platform core.PlatformConfig
}

// ExperimentNodes maps each paper experiment to its node count.
func ExperimentNodes(id core.ID) int {
	switch id {
	case core.Exp2, core.Exp2A, core.Exp2B, core.Exp2C, core.Exp2D, core.Exp3A:
		return 2
	default:
		return 1
	}
}

// Expand resolves every manifest line against the globals and unrolls
// the seed lists: one Experiment per line per seed (or exactly one for
// a seedless line, with the fault scenario's committed seed untouched —
// this is what lets a degenerate manifest reproduce the repository's
// telemetry goldens byte for byte).
func (m *Manifest) Expand() ([]Experiment, error) {
	base, basePC, err := m.platform()
	if err != nil {
		return nil, err
	}
	baseSeed, err := m.baseSeed()
	if err != nil {
		return nil, err
	}
	var out []Experiment
	seen := make(map[string]int)
	for i, row := range m.lines {
		sig := m.signature(row)
		if prev, dup := seen[sig]; dup {
			return nil, fmt.Errorf("line %d: duplicate experiment line (identical to line %d)", row.n, prev)
		}
		seen[sig] = i
		exps, err := m.expandLine(row, base, basePC, baseSeed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", row.n, err)
		}
		for _, e := range exps {
			e.Index = len(out)
			out = append(out, e)
		}
	}
	return out, nil
}

// signature renders a line's resolved cells canonically, for duplicate
// detection: two rows that resolve to the same configuration are the
// same sweep point even if one spells it via a global default.
func (m *Manifest) signature(row line) string {
	parts := make([]string, len(columnKeys))
	for i, k := range columnKeys {
		if k == "label" {
			continue // a label does not change what runs
		}
		parts[i] = m.value(row, k)
	}
	return strings.Join(parts, "\x00")
}

// platform resolves the global platform key into base Params plus the
// serializable config they came from (cache-key material).
func (m *Manifest) platform() (core.Params, core.PlatformConfig, error) {
	switch p := m.global("platform"); p {
	case "", "default":
		return core.DefaultParams(), core.DefaultPlatformConfig(), nil
	default:
		f, err := os.Open(filepath.Join(m.Dir, p))
		if err != nil {
			return core.Params{}, core.PlatformConfig{}, fmt.Errorf("platform: %w", err)
		}
		defer f.Close()
		pc, err := core.LoadPlatformConfig(f)
		if err != nil {
			return core.Params{}, core.PlatformConfig{}, fmt.Errorf("platform %s: %w", p, err)
		}
		params, err := pc.Params()
		if err != nil {
			return core.Params{}, core.PlatformConfig{}, fmt.Errorf("platform %s: %w", p, err)
		}
		return params, pc, nil
	}
}

func (m *Manifest) baseSeed() (uint64, error) {
	text := m.global("base_seed")
	if text == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("base_seed %q: %v", text, err)
	}
	return v, nil
}

// expandLine resolves one manifest row into its experiments.
func (m *Manifest) expandLine(row line, base core.Params, basePC core.PlatformConfig, baseSeed uint64) ([]Experiment, error) {
	e := Experiment{Line: row.n, Params: base, Platform: basePC}

	expText := m.value(row, "experiment")
	topoText := m.value(row, "topology")
	switch {
	case expText != "" && topoText != "":
		return nil, fmt.Errorf("experiment %q and topology %q are mutually exclusive", expText, topoText)
	case expText == "" && topoText == "":
		return nil, fmt.Errorf("a line needs either an experiment or a topology")
	}

	// Numeric knobs shared by both line kinds.
	var err error
	if e.Frames, err = m.intValue(row, "frames", 0); err != nil {
		return nil, err
	}
	rotation, err := m.intValue(row, "rotation", 0)
	if err != nil {
		return nil, err
	}
	if d, err := m.floatValue(row, "d", 0); err != nil {
		return nil, err
	} else if d < 0 {
		return nil, fmt.Errorf("d must be positive, got %g", d)
	} else if d > 0 {
		e.Params.FrameDelayS = d
	}

	// Governor, fault scenario, assertion catalog.
	if text := m.value(row, "governor"); text != "" {
		spec, err := governor.ParseSpec(text)
		if err != nil {
			return nil, err
		}
		e.Params.Governor = spec
	}
	if text := m.value(row, "faults"); text != "" {
		sc, err := m.loadScenario(text)
		if err != nil {
			return nil, err
		}
		e.Params.Faults = sc
	}
	if text := m.value(row, "assert"); text != "" {
		spec, err := assert.LoadFile(filepath.Join(m.Dir, text))
		if err != nil {
			return nil, err
		}
		e.Params.Assertions = spec
	}

	// Line identity: a paper experiment or a built topology.
	if expText != "" {
		if err := m.rejectShapeKeys(row, "experiment lines"); err != nil {
			return nil, err
		}
		id := core.ID(expText)
		if !validExperiment(id) {
			return nil, fmt.Errorf("unknown experiment %q (want one of %v or 3A)", expText, core.AllExperiments)
		}
		if id == core.Exp3A && !e.Params.Governor.Enabled() {
			return nil, fmt.Errorf("experiment 3A needs a governor (set the governor column or a global default)")
		}
		if rotation > 0 {
			e.Params.RotationPeriod = rotation
		}
		e.ID = id
		e.Nodes = ExperimentNodes(id)
	} else {
		g, kind, shape, err := m.buildTopology(row, topoText)
		if err != nil {
			return nil, err
		}
		if rotation > 1 && kind != "serial" {
			return nil, fmt.Errorf("rotation needs a serial topology, not %q", kind)
		}
		e.Kind = kind
		e.Graph = g
		e.Shape = shape
		e.Nodes = len(g.Nodes)
		// A topology line rotates only when it asks to: the platform's
		// default period belongs to experiment 2C.
		e.Params.RotationPeriod = rotation
	}

	e.Label = m.value(row, "label")
	if e.Label == "" {
		e.Label = defaultLabel(e)
	}

	// Seed unrolling.
	seeds, err := parseSeeds(m.value(row, "seeds"))
	if err != nil {
		return nil, err
	}
	if seeds == nil {
		return []Experiment{e}, nil
	}
	sc := e.Params.Faults
	if sc == nil && e.ID == core.Exp2D {
		sc = core.DefaultFaultScenario()
	}
	if sc == nil {
		return nil, fmt.Errorf("seeds need a fault scenario (the link/crash RNG is the only seeded randomness)")
	}
	out := make([]Experiment, len(seeds))
	for i, seed := range seeds {
		clone := *sc
		clone.Seed = deriveSeed(baseSeed, row.n, seed)
		pt := e
		pt.Seeded = true
		pt.Seed = seed
		pt.RunSeed = clone.Seed
		pt.Params.Faults = &clone
		pt.Label = fmt.Sprintf("%s seed=%d", e.Label, seed)
		out[i] = pt
	}
	return out, nil
}

// loadScenario resolves the faults cell: the built-in default scenario
// by name, or a scenario JSON relative to the manifest.
func (m *Manifest) loadScenario(text string) (*fault.Scenario, error) {
	if text == "default" {
		return core.DefaultFaultScenario(), nil
	}
	return fault.LoadFile(filepath.Join(m.Dir, text))
}

// shapeKeys parameterize topology lines only.
var shapeKeys = []string{"nodes", "stages", "width", "bf", "depth", "sensors", "aggregators"}

func (m *Manifest) rejectShapeKeys(row line, what string) error {
	for _, k := range shapeKeys {
		if m.value(row, k) != "" {
			return fmt.Errorf("%s take no %s", what, k)
		}
	}
	return nil
}

// buildTopology constructs the graph a topology line describes,
// rejecting shape keys that do not belong to the kind. The returned
// shape map records the builder arguments for cache-key material.
func (m *Manifest) buildTopology(row line, kind string) (*topology.Graph, string, map[string]int, error) {
	need := func(keys ...string) ([]int, error) {
		for _, k := range shapeKeys {
			if contains(keys, k) {
				continue
			}
			if m.value(row, k) != "" {
				return nil, fmt.Errorf("topology %q takes no %s", kind, k)
			}
		}
		vals := make([]int, len(keys))
		for i, k := range keys {
			v, err := m.intValue(row, k, -1)
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fmt.Errorf("topology %q needs %s", kind, strings.Join(keys, " and "))
			}
			vals[i] = v
		}
		return vals, nil
	}
	shape := func(v []int, keys ...string) map[string]int {
		s := make(map[string]int, len(keys))
		for i, k := range keys {
			s[k] = v[i]
		}
		return s
	}
	switch kind {
	case "serial":
		v, err := need("nodes")
		if err != nil {
			return nil, "", nil, err
		}
		if v[0] < 1 {
			return nil, "", nil, fmt.Errorf("serial needs nodes ≥ 1, got %d", v[0])
		}
		if err := fleetSize(kind, v[0]); err != nil {
			return nil, "", nil, err
		}
		return topology.Serial(v[0], topology.Config{}), kind, shape(v, "nodes"), nil
	case "wide":
		v, err := need("stages", "width")
		if err != nil {
			return nil, "", nil, err
		}
		if v[0] < 1 || v[1] < 1 {
			return nil, "", nil, fmt.Errorf("wide needs stages ≥ 1 and width ≥ 1, got %d×%d", v[0], v[1])
		}
		if err := fleetSize(kind, max(v[0], v[1]), v[0]*v[1]); err != nil {
			return nil, "", nil, err
		}
		return topology.Wide(v[0], v[1], topology.Config{}), kind, shape(v, "stages", "width"), nil
	case "tree":
		v, err := need("bf", "depth")
		if err != nil {
			return nil, "", nil, err
		}
		if v[0] < 2 || v[1] < 1 {
			return nil, "", nil, fmt.Errorf("tree needs bf ≥ 2 and depth ≥ 1, got bf=%d depth=%d", v[0], v[1])
		}
		// Count the levels until the total passes the cap; bf and each
		// level width stay under it, so nothing overflows.
		total := 0
		for l, w := 0, 1; l <= v[1] && total <= maxFleetNodes; l, w = l+1, w*min(v[0], maxFleetNodes+1) {
			total += w
		}
		if err := fleetSize(kind, total); err != nil {
			return nil, "", nil, err
		}
		return topology.Tree(v[0], v[1], topology.Config{}), kind, shape(v, "bf", "depth"), nil
	case "mesh":
		v, err := need("sensors", "aggregators")
		if err != nil {
			return nil, "", nil, err
		}
		if v[1] < 1 || v[1] > v[0] {
			return nil, "", nil, fmt.Errorf("mesh needs 1 ≤ aggregators ≤ sensors, got %d sensors, %d aggregators", v[0], v[1])
		}
		if err := fleetSize(kind, v[0], v[0]+v[1]); err != nil {
			return nil, "", nil, err
		}
		return topology.Mesh(v[0], v[1], topology.Config{}), kind, shape(v, "sensors", "aggregators"), nil
	default:
		return nil, "", nil, fmt.Errorf("unknown topology %q (want serial, wide, tree or mesh)", kind)
	}
}

// maxFleetNodes bounds the fleet one topology line describes: far above
// any study here, and low enough that a mistyped shape is an error
// rather than an exhausted heap or an overflowed size.
const maxFleetNodes = 1 << 10

// fleetSize rejects a fleet of more than maxFleetNodes nodes. Each count
// is checked in turn, so a caller can guard a product by its factors
// before the product can overflow.
func fleetSize(kind string, counts ...int) error {
	for _, n := range counts {
		if n > maxFleetNodes {
			return fmt.Errorf("%s topology above the limit of %d nodes", kind, maxFleetNodes)
		}
	}
	return nil
}

// defaultLabel names a line that did not choose one.
func defaultLabel(e Experiment) string {
	if e.ID != "" {
		return "exp " + string(e.ID)
	}
	switch e.Kind {
	case "serial":
		return fmt.Sprintf("serial/%d", e.Nodes)
	default:
		return fmt.Sprintf("%s/%d", e.Kind, e.Nodes)
	}
}

func (m *Manifest) intValue(row line, key string, dflt int) (int, error) {
	text := m.value(row, key)
	if text == "" {
		return dflt, nil
	}
	v, err := strconv.Atoi(text)
	if err != nil {
		return 0, fmt.Errorf("%s %q: %v", key, text, err)
	}
	return v, nil
}

func (m *Manifest) floatValue(row line, key string, dflt float64) (float64, error) {
	text := m.value(row, key)
	if text == "" {
		return dflt, nil
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: %v", key, text, err)
	}
	return v, nil
}

// parseSeeds parses the seeds cell: "" (nil — one unseeded run),
// "A..B" (inclusive range) or "a,b,c" (explicit list; the cell must be
// quoted for the commas to survive splitting).
func parseSeeds(text string) ([]uint64, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	if lo, hi, ok := strings.Cut(text, ".."); ok {
		a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("seeds %q: want \"A..B\" with A ≤ B", text)
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("seeds %q: range of %d is past any sensible sweep", text, b-a+1)
		}
		out := make([]uint64, 0, b-a+1)
		for s := a; ; s++ {
			out = append(out, s)
			if s == b {
				return out, nil
			}
		}
	}
	parts := strings.Split(text, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seeds %q: %v", text, err)
		}
		out[i] = v
	}
	return out, nil
}

// deriveSeed decorrelates the scenario seed planted in each expanded
// experiment: the manifest's base_seed, the source line number and the
// seed token are folded through splitmix64 so two lines sharing a seed
// token still see independent fault streams, while the derivation stays
// byte-stable across runs, machines and worker counts.
func deriveSeed(base uint64, lineNo int, seed uint64) uint64 {
	h := splitmix64(base ^ 0xd1b54a32d192ed03)
	h = splitmix64(h ^ uint64(lineNo))
	return splitmix64(h ^ seed)
}

// splitmix64 is the standard 64-bit finalizer (same generator the fault
// injector's RNG steps with).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// validExperiment reports whether id names a runnable experiment line.
func validExperiment(id core.ID) bool {
	if id == core.Exp3A {
		return true
	}
	for _, known := range core.AllExperiments {
		if id == known {
			return true
		}
	}
	return false
}
