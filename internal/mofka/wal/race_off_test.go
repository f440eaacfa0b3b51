//go:build !race

package wal_test

const raceEnabled = false
