//go:build race

package cluster

// raceEnabled reports that the race detector instruments this build;
// allocation accounting is not meaningful then (sync.Pool drops Puts at
// random under -race).
const raceEnabled = true
