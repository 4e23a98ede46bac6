//go:build race

package par

// raceEnabled reports that the race detector instruments this build;
// allocation accounting is not meaningful then.
const raceEnabled = true
