//go:build race

package serve

// raceEnabled reports that the race detector is compiled in: timing
// bounds measured without it do not hold under its slowdown.
const raceEnabled = true
