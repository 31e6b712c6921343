//go:build !linux

package kvs

// place writes the sealed record b at the log's end. A partial write rolls
// back to the last complete record, since replay cannot reach past torn
// bytes; if even that fails, the log stops appending for good.
func (w *shardWAL) place(b []byte) error {
	if _, err := w.f.WriteAt(b, w.size); err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			w.closed = true
		}
		return err
	}
	return nil
}

// trim cuts the file back to its records.
func (w *shardWAL) trim() error { return w.f.Truncate(w.size) }
