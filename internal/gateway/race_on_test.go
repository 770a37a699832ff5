//go:build race

package gateway

const raceEnabled = true
