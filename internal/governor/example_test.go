package governor_test

import (
	"fmt"

	"dvsim/internal/governor"
)

// Buffering a bursty frame stream lowers the sustainable clock (Im et
// al.): one 6-unit frame among 1-unit frames needs 3x speed unbuffered,
// but under half that with two frames of buffer.
func ExampleBufferedMinSpeed() {
	works := []float64{1, 1, 6, 1, 1, 1}
	fmt.Printf("unbuffered: %.2f\n", governor.BufferedMinSpeed(works, 2, 0))
	fmt.Printf("buffer 2:   %.2f\n", governor.BufferedMinSpeed(works, 2, 2))
	// Output:
	// unbuffered: 3.00
	// buffer 2:   1.00
}
