//go:build race

package workloads

// raceEnabled: under the race detector sync.Pool drops items at random, so
// pooled scratch (encoding/json's scanner) shows up as allocations.
const raceEnabled = true
