// Package nondet exercises the nondeterminism analyzer: wall-clock
// reads, the global math/rand stream and env-gated behavior are the
// three ambient inputs that break "same inputs, same telemetry".
package nondet

import (
	"math/rand" // want `math/rand in simulator code`
	"os"
	"time"

	_ "dvsim"              // want `imports dvsim, which the nondeterminism checks do not cover`
	_ "dvsim/internal/sim" // a guarded package: imports among them are fine
)

func clock() time.Time {
	return time.Now() // want `wall-clock time\.Now`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock time\.Since`
}

func draw() int {
	return rand.Intn(6) // want `global rand\.Intn draws from the process-wide random stream`
}

func gated() bool {
	return os.Getenv("DVSIM_FAST") != "" // want `os\.Getenv gates simulator behavior`
}

// seeded shows the construction the analyzer steers toward: methods on
// an explicitly seeded local are not flagged (only the import is, once,
// in the import block above).
func seeded() float64 {
	r := rand.New(rand.NewSource(7))
	return r.Float64()
}
