package trace

import "runtime"

// Flush hands the requests the engine side has collected to the helper
// now, instead of at the next full batch.
func (r *ReadAhead) Flush() { r.flush() }

// AwaitAhead waits until the helper has settled the cursor's posted
// window and reports whether it filled it. Flush first: a request
// still in the engine side's batch is never taken up.
func (c *Cursor) AwaitAhead() bool {
	a := c.next
	if a == nil {
		return false
	}
	for {
		switch a.state.Load() {
		case aheadQueued, aheadBusy:
			runtime.Gosched()
		case aheadDone:
			return true
		default:
			return false
		}
	}
}
