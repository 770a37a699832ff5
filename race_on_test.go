//go:build race

package streamlake_test

const raceEnabled = true
