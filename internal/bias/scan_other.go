//go:build !amd64 || race

package bias

import "sync/atomic"

// scanFor returns the index of the first word of s whose identity bits equal
// key, or len(s) when none does; see scan_amd64.go.
func scanFor(s []atomic.Uint64, key uint64) int {
	for i := range s {
		if s[i].Load()&^genMask == key {
			return i
		}
	}
	return len(s)
}
