package sweep

import (
	"io"
	"sync"
)

// syncWriter serializes Write calls onto an underlying writer. The
// executor (execute) emits one progress line per completed job from
// whichever goroutine finished it; an unguarded writer tears and
// interleaves those lines under -workers > 1 and trips the race
// detector on non-atomic writers like bytes.Buffer. Each progress line
// is a single Write (fmt.Fprintf formats first, writes once), so
// per-call locking keeps whole lines intact.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// syncProgress wraps a progress writer for concurrent use. nil stays
// nil (progress disabled), and an already-wrapped writer is returned
// unchanged so nested entry points never stack locks.
func syncProgress(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	if sw, ok := w.(*syncWriter); ok {
		return sw
	}
	return &syncWriter{w: w}
}
