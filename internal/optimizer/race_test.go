//go:build race

package optimizer_test

// raceEnabled reports a build with the race detector on.
const raceEnabled = true
