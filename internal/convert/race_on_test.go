//go:build race

package convert

const raceEnabled = true
