package eval

// SetValidateParallelThreshold sets the extent size at which validation fans
// out across CPUs, so external tests can force the worker-pool path. It
// returns a function that restores the previous value.
func SetValidateParallelThreshold(n int) (restore func()) {
	old := validateParallelThreshold
	validateParallelThreshold = n
	return func() { validateParallelThreshold = old }
}
