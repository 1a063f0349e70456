//go:build race

package campaign

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so allocation bounds are skipped.
const raceEnabled = true
