package sim

// UnitQuantum forces one-cycle windows — the degenerate window an
// ICNTLatency of zero already needs — so a test can hold the engine's
// full-length windows to the per-cycle schedule they stand for. This is
// the run loop's only seam, and it exists only in test binaries.
func (e *Engine) UnitQuantum() { e.quantum = 1 }
