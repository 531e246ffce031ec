// Fixture for the wallclock analyzer, type-checked as a library
// package ("aquago/internal/exp") and again as a cmd/ package (where
// everything below must pass) by the harness.
package fixture

import (
	"math/rand"
	"time"
)

func flaggedNow() int64 {
	return time.Now().Unix() // want "time.Now reads wall-clock time"
}

func flaggedSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads wall-clock time"
}

func flaggedSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads wall-clock time"
}

func flaggedGlobalRand() int {
	return rand.Intn(6) // want "rand.Intn reads the global math/rand source"
}

func flaggedGlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "rand.Shuffle reads the global math/rand source"
}

func seededOK(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // seeded source: methods are fine
	return rng.Float64()
}

func durationOK(d time.Duration) float64 {
	return d.Seconds() // duration arithmetic never touches the host clock
}

func annotatedStillFlagged() time.Time {
	//aqualint:wallclock-ok library code has no wall-clock escape hatch
	return time.Now() // want "time.Now reads wall-clock time"
}
