//go:build race

package main

// raceEnabled is true in a -race build, where the identity manifest is
// skipped: it would only add minutes to the race run, and cross-worker
// determinism is raced by TestCombinedTraceIdenticalAcrossWorkers.
const raceEnabled = true
