package machine

// SetAfterEpochAbort makes Run call f after every aborted epoch has been
// rolled back, on Run's goroutine.
func SetAfterEpochAbort(m *Machine, f func()) { m.afterEpochAbort = f }
