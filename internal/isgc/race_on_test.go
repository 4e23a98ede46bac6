//go:build race

package isgc

// raceEnabled reports that the race detector instruments this build;
// allocation counts are not meaningful then.
const raceEnabled = true
