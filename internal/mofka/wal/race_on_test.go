//go:build race

package wal_test

// raceEnabled: the race detector allocates on its own, so allocation pins
// are skipped under it.
const raceEnabled = true
