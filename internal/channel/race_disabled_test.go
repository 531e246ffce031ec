//go:build !race

package channel

// raceEnabled reports whether the race detector is compiled in; alloc
// -count pins skip under it (instrumentation inflates allocations).
const raceEnabled = false
