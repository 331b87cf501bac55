//go:build race

package meerkat_test

import "meerkat/internal/message"

// raceEnabled reports whether the race detector is on. Race instrumentation
// adds bookkeeping allocations, so allocation-count gates skip themselves
// under -race.
const raceEnabled = true

// Under -race every suite in this package runs with released messages
// poisoned instead of pooled, so a use-after-release reads garbage the
// protocol rejects (and the detector sees the overwrite) rather than a
// plausible recycled message.
func init() { message.SetPoisonOnRelease(true) }
