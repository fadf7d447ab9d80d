package sim

// Switches exposes the goroutine-switch counter to the external test
// package.
func Switches(e *Env) int { return e.switches }
