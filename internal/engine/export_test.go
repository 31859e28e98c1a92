package engine

// SetSingleFlightHook installs f as Encode's single-flight hook (see
// testSingleFlight); nil removes it.
func SetSingleFlightHook(f func(leader bool)) { testSingleFlight = f }
