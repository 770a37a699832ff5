//go:build !race

package lakehouse

const raceEnabled = false
