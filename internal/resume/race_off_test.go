//go:build !race

package resume_test

const raceEnabled = false
