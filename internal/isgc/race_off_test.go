//go:build !race

package isgc

const raceEnabled = false
