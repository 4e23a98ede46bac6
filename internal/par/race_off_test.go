//go:build !race

package par

const raceEnabled = false
