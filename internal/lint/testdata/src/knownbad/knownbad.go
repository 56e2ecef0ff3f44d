// Package knownbad concentrates one specimen of every invariant
// violation dvsimlint enforces. The integration test runs the full
// multichecker catalog over it and asserts the exact diagnostic set.
package knownbad

import (
	"fmt"
	"math/rand"
	"time"

	_ "dvsim/internal/service"
)

func wallClock() int64 { return time.Now().UnixNano() }

func globalDraw() int { return rand.Intn(6) }

func leakMapOrder(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}

func nakedSpawn(f func()) { go f() }

func exactFloat(a, b float64) bool { return a == b }
