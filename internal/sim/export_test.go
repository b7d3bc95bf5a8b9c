package sim

// Columnar reports whether e runs the columnar core, for the external
// tests that build executions from a protocol package's kernel.
func (e *Execution) Columnar() bool { return e.tallyMode }
