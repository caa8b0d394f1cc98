//go:build !linux

package wal

import "fmt"

// storeLocked writes b after the active segment's last frame with one
// write(2).
func (l *Log) storeLocked(b []byte) error {
	if n, err := writeMaybeTorn(l.f, b); err != nil {
		return fmt.Errorf("wal: segment write after %d bytes: %w", n, err)
	}
	return nil
}

// releaseLocked has nothing to undo: the segment file never holds more
// than its frames.
func (l *Log) releaseLocked() error { return nil }
