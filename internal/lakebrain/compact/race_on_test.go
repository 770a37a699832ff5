//go:build race

package compact

const raceEnabled = true
