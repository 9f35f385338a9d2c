//go:build race

// Package race reports whether the binary was built with the race
// detector, which adds allocations of its own: allocation-count tests
// skip themselves when Enabled.
package race

// Enabled is true when built with -race.
const Enabled = true
