//go:build race

package recovery

import "meerkat/internal/message"

// Under -race this package's tests run with released messages poisoned
// instead of pooled (see message.SetPoisonOnRelease), making any
// use-after-release loud.
func init() { message.SetPoisonOnRelease(true) }
