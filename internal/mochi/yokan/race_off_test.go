//go:build !race

package yokan

const raceEnabled = false
