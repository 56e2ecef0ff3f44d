package manifest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dvsim/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

func load(t *testing.T, text string) *Manifest {
	t.Helper()
	m, err := Load(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return m
}

func expand(t *testing.T, text string) []Experiment {
	t.Helper()
	exps, err := load(t, text).Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return exps
}

// TestLoadRejects: the parser is strict — a typo fails the load
// instead of silently running a different sweep.
func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"unknown global", "speed = 9\nexperiment\n\"1\"\n", `unknown global key "speed"`},
		{"per-line-only global", "nodes = 3\nexperiment\n\"1\"\n", `per-line only`},
		{"global set twice", "frames = 1\nframes = 2\nexperiment\n\"1\"\n", `set twice`},
		{"unknown column", "experiment, speed\n\"1\", 9\n", `unknown column "speed"`},
		{"duplicate column", "experiment, experiment\n\"1\", \"1\"\n", `duplicate column`},
		{"cell count", "experiment, frames\n\"1\"\n", "1 cells for 2 columns"},
		{"no header", "frames = 10\n", "no experiment table"},
		{"empty sweep", "experiment, frames\n", "empty sweep"},
		{"unterminated quote", "experiment\n\"1\n", "unterminated quote"},
		{"nested quote", "experiment\n\"1\"x\"\n", "malformed cell"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(c.text))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestExpandRejects: semantic validation of resolved lines.
func TestExpandRejects(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"experiment and topology",
			"experiment, topology, nodes\n\"1\", \"serial\", 2\n", "mutually exclusive"},
		{"neither",
			"experiment, topology\n\"\", \"\"\n", "either an experiment or a topology"},
		{"unknown experiment",
			"experiment\n\"9Z\"\n", `unknown experiment "9Z"`},
		{"3A without governor",
			"experiment\n\"3A\"\n", "needs a governor"},
		{"shape key on experiment line",
			"experiment, nodes\n\"1\", 3\n", "experiment lines take no nodes"},
		{"wrong shape key for kind",
			"topology, nodes, bf\n\"serial\", 3, 2\n", `"serial" takes no bf`},
		{"missing shape key",
			"topology, bf\n\"tree\", 2\n", "needs bf and depth"},
		{"unknown topology",
			"topology, nodes\n\"ring\", 4\n", `unknown topology "ring"`},
		{"rotation on tree",
			"topology, bf, depth, rotation\n\"tree\", 2, 2, 50\n", "rotation (Params.RotationPeriod 50) and native mode need a chain"},
		{"seeds without faults",
			"topology, nodes, seeds\n\"serial\", 2, \"1..3\"\n", "seeds need a fault scenario"},
		{"bad seed range",
			"topology, nodes, faults, seeds\n\"serial\", 2, \"default\", \"5..3\"\n", "A ≤ B"},
		// Runfiles past the expansion limit, by one range, by one list
		// and by lines that are each within it.
		{"huge seed range",
			"experiment, seeds\n\"2D\", \"0..999999\"\n", "expands past 4096 experiments"},
		{"widest seed range",
			"experiment, seeds\n\"2D\", \"0..18446744073709551615\"\n", "expands past 4096 experiments"},
		{"huge seed list",
			"experiment, seeds\n\"2D\", \"" + strings.Repeat("7,", 4096) + "7\"\n", "expands past 4096 experiments"},
		{"seeds across lines",
			"experiment, seeds, frames\n\"2D\", \"0..4000\", 5\n\"2D\", \"0..95\", 6\n", "line 3: seeds \"0..95\": the runfile expands past"},
		{"seedless line past a full sweep",
			"experiment, seeds, frames\n\"2D\", \"0..4095\", 5\n\"1\", , 6\n", "line 3: the runfile expands past"},
		{"duplicate lines",
			"experiment, frames\n\"1\", 10\n\"1\", 10\n", "duplicate experiment line"},
		{"duplicate via global default",
			"frames = 10\nexperiment, frames\n\"1\", \n\"1\", 10\n", "duplicate experiment line"},
		{"negative d",
			"experiment, d\n\"1\", -2\n", "d must be positive"},
		{"bad governor",
			"experiment, governor\n\"1\", \"warp\"\n", "warp"},
		// Lines that parse but that core cannot run fail here, not in
		// a worker.
		{"governor tuning out of range",
			"experiment, governor\n\"2\", \"interval:alpha=2\"\n", "outside (0, 1]"},
		{"infeasible d",
			"experiment, d, frames\n\"2\", 0.5, 5\n", "no feasible two-node partition"},
		{"negative rotation",
			"topology, nodes, rotation\n\"serial\", 2, -5\n", "rotation must be positive"},
		// A setting the line's experiment does not read, in a cell or
		// inherited from a global.
		{"rotation off 2C",
			"experiment, rotation\n\"1\", 5\n", "line 2: core: bad run spec: experiment 1 does not read rotation"},
		{"faults on 0A",
			"experiment, faults\n\"0A\", \"default\"\n", "experiment 0A does not read faults"},
		{"inherited frames on 0B",
			"frames = 40\nexperiment, label\n\"1\", \"one\"\n\"0B\", \"half\"\n", "line 4: core: bad run spec: experiment 0B does not read frames"},
		// Fleet shapes past the node limit, including sizes whose node
		// count overflows an int.
		{"huge serial",
			"topology, nodes\n\"serial\", 1000000000000\n", "limit of 1024 nodes"},
		{"huge wide",
			"topology, stages, width\n\"wide\", 4294967296, 4294967296\n", "limit of 1024 nodes"},
		{"deep tree",
			"topology, bf, depth\n\"tree\", 2, 100\n", "limit of 1024 nodes"},
		{"wide tree",
			"topology, bf, depth\n\"tree\", 9223372036854775807, 2\n", "limit of 1024 nodes"},
		{"huge mesh",
			"topology, sensors, aggregators\n\"mesh\", 9223372036854775807, 9223372036854775807\n", "limit of 1024 nodes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := load(t, c.text).Expand()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestResolveRoutesEveryPath: Resolve sees each platform, faults and
// assert reference, and its refusal fails the expansion; the "default"
// keywords never reach it.
func TestResolveRoutesEveryPath(t *testing.T) {
	var refs []string
	refuse := func(ref string) (string, error) {
		refs = append(refs, ref)
		return "", fmt.Errorf("refused %q", ref)
	}
	for _, text := range []string{
		"platform = \"p.json\"\nexperiment\n\"1\"\n",
		"experiment, faults\n\"2\", \"f.json\"\n",
		"experiment, assert\n\"1\", \"a.json\"\n",
	} {
		m := load(t, text)
		m.Resolve = refuse
		if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "refused") {
			t.Errorf("Expand error %v, want the resolver's refusal:\n%s", err, text)
		}
	}
	if want := []string{"p.json", "f.json", "a.json"}; !slices.Equal(refs, want) {
		t.Errorf("resolver saw %q, want %q", refs, want)
	}
	m := load(t, "platform = \"default\"\nexperiment, faults\n\"2\", \"default\"\n")
	m.Resolve = refuse
	if _, err := m.Expand(); err != nil {
		t.Errorf("keywords went through the resolver: %v", err)
	}

	// A runfile's own resolver joins a relative reference under its
	// directory and keeps an absolute one as written.
	catalog, err := filepath.Abs(filepath.Join(scenariosDir, "assertions", "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	resolve := inDir(dir)
	for ref, want := range map[string]string{
		"a.json":          filepath.Join(dir, "a.json"),
		"../b/c.json":     filepath.Join(filepath.Dir(dir), "b", "c.json"),
		catalog:           catalog,
		"/no/such/f.json": "/no/such/f.json",
	} {
		if got, err := resolve(ref); err != nil || got != want {
			t.Errorf("inDir(%q)(%q) = %q, %v; want %q", dir, ref, got, err, want)
		}
	}
	runfile := filepath.Join(dir, "abs.toml")
	if err := os.WriteFile(runfile, []byte("experiment, assert\n\"1\", \""+catalog+"\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = LoadFile(runfile)
	if err != nil {
		t.Fatal(err)
	}
	if exps, err := m.Expand(); err != nil || exps[0].Params.Assertions == nil {
		t.Errorf("runfile naming %s absolutely: %v", catalog, err)
	}
}

// TestGlobalOverride: an unquoted empty cell inherits the global, an
// explicit value overrides it, and a quoted empty clears it.
func TestGlobalOverride(t *testing.T) {
	exps := expand(t, `
frames = 40
governor = "interval"

experiment, frames, governor, label
"1",       ,        ,          "inherit"
"1",       10,      ,          "override"
"1",       "",      "",        "cleared"
`)
	if len(exps) != 3 {
		t.Fatalf("expanded %d experiments, want 3", len(exps))
	}
	if exps[0].Frames != 40 || exps[0].Params.Governor.Name != "interval" {
		t.Fatalf("inherit line got frames=%d governor=%q", exps[0].Frames, exps[0].Params.Governor.Name)
	}
	if exps[1].Frames != 10 {
		t.Fatalf("override line got frames=%d, want 10", exps[1].Frames)
	}
	if exps[2].Frames != 0 || exps[2].Params.Governor.Enabled() {
		t.Fatalf("cleared line got frames=%d governor=%q", exps[2].Frames, exps[2].Params.Governor.Name)
	}
}

// TestGlobalClearedPerLine: a global is a default for its column's
// cells, so a line whose experiment does not read it clears it with a
// quoted empty cell and the other lines still inherit it.
func TestGlobalClearedPerLine(t *testing.T) {
	exps := expand(t, "frames = 40\ngovernor = \"pid\"\n\nexperiment, frames, governor\n\"1\", , \n\"0A\", \"\", \"\"\n")
	if exps[0].Frames != 40 || exps[0].Params.Governor.Name != "pid" {
		t.Errorf("line 1 got frames %d governor %q, want the globals", exps[0].Frames, exps[0].Params.Governor.Name)
	}
	if exps[1].Frames != 0 || exps[1].Params.Governor.Enabled() {
		t.Errorf("line 0A got frames %d governor %q, want both cleared", exps[1].Frames, exps[1].Params.Governor.Name)
	}
}

// TestQuotedCells: governor tuning contains commas and equals signs;
// quoting keeps the cell intact through splitting.
func TestQuotedCells(t *testing.T) {
	exps := expand(t, "experiment, governor, label\n\"1\", \"pid:kp=0.5,ki=0.1\", \"tuned, carefully\"\n")
	g := exps[0].Params.Governor
	if g.Name != "pid" || g.Tuning["kp"] != 0.5 || g.Tuning["ki"] != 0.1 {
		t.Fatalf("governor spec mangled: %+v", g)
	}
	if exps[0].Label != "tuned, carefully" {
		t.Fatalf("label mangled: %q", exps[0].Label)
	}
}

// TestSeedExpansion: a seeds cell unrolls one experiment per seed with
// derived, decorrelated scenario seeds; a seedless line keeps the
// scenario's committed seed byte-for-byte (the golden-reproduction
// guarantee).
func TestSeedExpansion(t *testing.T) {
	exps := expand(t, `
base_seed = 7
topology, nodes, faults, seeds, label
"serial", 2, "default", "1..3", "swept"
"serial", 3, "default", "", "committed"
"serial", 2, "default", "10, 20", "listed"
`)
	if len(exps) != 6 {
		t.Fatalf("expanded %d experiments, want 6", len(exps))
	}
	swept := exps[:3]
	seen := map[uint64]bool{}
	for i, e := range swept {
		if !e.Seeded || e.Seed != uint64(i+1) {
			t.Fatalf("seed token %d on experiment %d", e.Seed, i)
		}
		if e.Params.Faults.Seed != e.RunSeed {
			t.Fatal("scenario seed is not the derived RunSeed")
		}
		if seen[e.RunSeed] {
			t.Fatalf("derived seed %d repeats", e.RunSeed)
		}
		seen[e.RunSeed] = true
		want := "swept seed=" + []string{"1", "2", "3"}[i]
		if e.Label != want {
			t.Fatalf("label %q, want %q", e.Label, want)
		}
	}
	committed := exps[3]
	if committed.Seeded || committed.Params.Faults.Seed != core.DefaultFaultScenario().Seed {
		t.Fatalf("seedless line disturbed the committed scenario seed: %+v", committed.Params.Faults)
	}
	if exps[4].Seed != 10 || exps[5].Seed != 20 {
		t.Fatalf("listed seeds got %d, %d", exps[4].Seed, exps[5].Seed)
	}
	// The same (base, line, token) triple must derive the same seed in
	// every future version: pin the function itself.
	if got := deriveSeed(7, 4, 1); got != swept[0].RunSeed {
		t.Fatalf("deriveSeed drifted: %d vs %d", got, swept[0].RunSeed)
	}
}

// TestSeedDerivationPinned: the derivation is part of the manifest
// contract — committed sweeps must replay identically forever.
func TestSeedDerivationPinned(t *testing.T) {
	pins := []struct {
		base uint64
		line int
		seed uint64
		want uint64
	}{
		{0, 1, 0, 0x88b936e403d19593},
		{7, 4, 1, 0x6c69a472e3989840},
		{99, 12, 3, 0xbd9b0df2ae4fd692},
	}
	for _, p := range pins {
		if got := deriveSeed(p.base, p.line, p.seed); got != p.want {
			t.Fatalf("deriveSeed(%d, %d, %d) = %#x, want %#x — committed sweeps would replay differently",
				p.base, p.line, p.seed, got, p.want)
		}
	}
}

// TestExp2DSeedsCloneBuiltin: 2D has a built-in scenario; seeds clone
// it with derived seeds instead of erroring or mutating the default.
func TestExp2DSeedsCloneBuiltin(t *testing.T) {
	exps := expand(t, "experiment, seeds, frames\n\"2D\", \"1..2\", 5\n")
	if len(exps) != 2 {
		t.Fatalf("expanded %d, want 2", len(exps))
	}
	dflt := core.DefaultFaultScenario()
	for _, e := range exps {
		if e.Params.Faults.Seed == dflt.Seed {
			t.Fatal("clone kept the built-in seed")
		}
		if len(e.Params.Faults.Links) != len(dflt.Links) {
			t.Fatal("clone lost the built-in link faults")
		}
	}
	if dflt.Seed != core.DefaultFaultScenario().Seed {
		t.Fatal("expansion mutated the built-in scenario")
	}
}

// TestDefaultLabels: lines without labels get derived ones.
func TestDefaultLabels(t *testing.T) {
	exps := expand(t, `
experiment, topology, nodes, bf, depth, frames
"2C",       ,          ,     ,   ,      10
,           "serial",  4,    ,   ,      10
,           "tree",    ,     2,  3,     10
`)
	for i, want := range []string{"exp 2C", "serial/4", "tree/15"} {
		if exps[i].Label != want {
			t.Fatalf("label %q, want %q", exps[i].Label, want)
		}
	}
	if exps[2].Nodes != 15 {
		t.Fatalf("tree bf=2 depth=3 has %d nodes, want 15", exps[2].Nodes)
	}
}

// TestGoldenAggregateCSV: a small committed sweep's aggregated table,
// byte for byte. Any drift in the runner, the schema or the simulation
// shows up here.
func TestGoldenAggregateCSV(t *testing.T) {
	m, err := LoadFile(filepath.Join("testdata", "mini_sweep.toml"))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := RunAll(exps, 0)
	got := CSV(results)

	path := filepath.Join("testdata", "aggregate_csv.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("aggregate CSV drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The JSONL twin carries the same rows in the same order and is
	// just as deterministic.
	var a, b strings.Builder
	if err := WriteJSONL(&a, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, RunAll(exps, 1)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSONL aggregation depends on worker count")
	}
	if n := strings.Count(a.String(), "\n"); n != len(results) {
		t.Fatalf("JSONL has %d lines for %d results", n, len(results))
	}
}
