//go:build !race

package model

// raceEnabled reports whether the race detector instruments this build;
// allocation counts consult it, since instrumentation allocates too.
const raceEnabled = false
