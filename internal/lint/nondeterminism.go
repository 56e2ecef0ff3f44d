package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"

	"dvsim/internal/lint/load"
)

// nondeterminism bans the ambient sources of run-to-run variation
// inside the simulator: the wall clock, the process-global math/rand
// stream, and environment-variable reads.
//
// Invariant: a simulation's outputs are a pure function of its Params,
// seeds and scenario files. Wall-clock reads leak host time into
// results; the global rand stream is shared, unseeded (Go ≥ 1.20
// auto-seeds it randomly) and algorithmically unpinned across Go
// releases; os.Getenv gates behavior on state no golden file records.
// The goldens catch the first two the moment they touch a run; only
// this check sees an environment gate that tests never set. Sanctioned
// randomness lives in explicitly seeded generators — the splitmix64
// stream in internal/splitmix/splitmix.go, or a rand.New(rand.NewSource(seed))
// local — never the package-level math/rand functions.
func nondeterminism(pkg *load.Package, report func(token.Pos, string)) {
	// The import itself is flagged: the repo pins byte-stability of
	// every seeded stream across Go releases, which math/rand does not
	// promise (and math/rand/v2 explicitly disclaims). A deliberate
	// seeded use is annotated in place.
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
				report(imp.Pos(), "math/rand in simulator code: its stream algorithms are not pinned across Go releases; use a splitmix64 stream (internal/splitmix/splitmix.go) or annotate a deliberate seeded use with //lint:allow nondeterminism <reason>")
			}
		}
	}
	for id, obj := range pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		switch kind, name := nondetRoot(fn); kind {
		case rootClock:
			report(id.Pos(), fmt.Sprintf("wall-clock time.%s in simulator code: simulated time must come from the kernel clock (sim.Kernel.Now)", name))
		case rootRand:
			report(id.Pos(), fmt.Sprintf("global %s.%s draws from the process-wide random stream: use an explicitly seeded generator (rand.New(rand.NewSource(seed)) or a splitmix64 stream as in internal/splitmix/splitmix.go)", fn.Pkg().Name(), name))
		case rootEnv:
			report(id.Pos(), fmt.Sprintf("os.%s gates simulator behavior on the environment: thread configuration through Params/Options so runs are reproducible from recorded inputs", name))
		}
	}
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

// nondetRoot classifies fn as one of the banned ambient sources.
// Methods are never roots: rand.Rand.Intn on a seeded local is exactly
// what the invariant steers code toward.
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
