package lint

import (
	"go/types"
	"strings"

	"dvsim/internal/lint/analysis"
)

// Nondeterminism bans the ambient sources of run-to-run variation
// inside the simulator: the wall clock, the process-global math/rand
// stream, and environment-variable reads.
//
// Invariant: a simulation's outputs are a pure function of its Params,
// seeds and scenario files. Wall-clock reads leak host time into
// results; the global rand stream is shared, unseeded (Go ≥ 1.20
// auto-seeds it randomly) and algorithmically unpinned across Go
// releases; os.Getenv gates behavior on state no golden file records.
// Sanctioned randomness lives in explicitly seeded generators — the
// splitmix64 streams in internal/fault/rng.go and internal/atr/rng.go,
// or a rand.New(rand.NewSource(seed)) local — never the package-level
// math/rand functions.
var Nondeterminism = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc:  "bans wall-clock reads, global math/rand and env-gated behavior in simulator packages",
	Run:  runNondeterminism,
}

func runNondeterminism(pass *analysis.Pass) error {
	// The import itself is flagged in simulator packages: the repo
	// pins byte-stability of every seeded stream across Go releases,
	// which math/rand does not promise (and math/rand/v2 explicitly
	// disclaims). The sanctioned splitmix64 homes are exempt via
	// config.go; a deliberate seeded use is annotated in place.
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "math/rand in simulator code: its stream algorithms are not pinned across Go releases; use a splitmix64 stream (internal/fault/rng.go, internal/atr/rng.go) or annotate a deliberate seeded use with //lint:allow nondeterminism <reason>")
			}
		}
	}
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		switch kind, name := nondetRoot(fn); kind {
		case rootClock:
			pass.Reportf(id.Pos(), "wall-clock time.%s in simulator code: simulated time must come from the kernel clock (sim.Kernel.Now)", name)
		case rootRand:
			pass.Reportf(id.Pos(), "global %s.%s draws from the process-wide random stream: use an explicitly seeded generator (rand.New(rand.NewSource(seed)) or a splitmix64 stream as in internal/fault/rng.go)", fn.Pkg().Name(), name)
		case rootEnv:
			pass.Reportf(id.Pos(), "os.%s gates simulator behavior on the environment: thread configuration through Params/Options so runs are reproducible from recorded inputs", name)
		}
	}
	return nil
}

// rootKind classifies the banned ambient sources. The zero value means
// "not a root".
type rootKind int

const (
	rootNone rootKind = iota
	rootClock
	rootRand
	rootEnv
)

// String is the phrasing interprocedural diagnostics use for the root a
// taint path ends in.
func (k rootKind) String() string {
	switch k {
	case rootClock:
		return "the wall clock"
	case rootRand:
		return "the process-global random stream"
	case rootEnv:
		return "an environment read"
	}
	return "a nondeterministic source"
}

// nondetRoot classifies fn as one of the banned ambient sources — the
// shared vocabulary of the direct (nondeterminism) and interprocedural
// (nondetflow) passes. Methods are never roots: rand.Rand.Intn on a
// seeded local is exactly what the invariant steers code toward.
func nondetRoot(fn *types.Func) (rootKind, string) {
	if fn == nil || fn.Pkg() == nil {
		return rootNone, ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return rootNone, ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return rootClock, name
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewZipf, ...) build the
		// explicitly seeded locals the invariant asks for; every
		// other package-level function draws from the process-
		// global stream.
		if !strings.HasPrefix(name, "New") {
			return rootRand, name
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return rootEnv, name
		}
	}
	return rootNone, ""
}
