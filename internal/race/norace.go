//go:build !race

// Package race reports whether the binary was built with the race
// detector, so allocation-count tests can skip themselves: the race
// runtime allocates on its own and would break their exact counts.
package race

// Enabled is true when the race detector is on.
const Enabled = false
