//go:build race

package main

// Under the race detector sync.Pool drops a random quarter of what is put
// into it, so allocation counts stop repeating.
const raceEnabled = true
