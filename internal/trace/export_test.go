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

// FileBufSize is the encoder buffer size a large-file test must exceed.
const FileBufSize = fileBufSize

// EncodedSize is the length of k's canonical encoding, the bytes Digest
// hashes.
func EncodedSize(k *Kernel) int64 {
	var n byteCounter
	if err := k.encode(&n); err != nil {
		panic(err)
	}
	return int64(n)
}

type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}
