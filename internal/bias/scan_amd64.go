//go:build amd64 && !race

package bias

import "sync/atomic"

// scanFor returns the index of the first word of s whose identity bits
// (w &^ genMask) equal key, an identity shifted to its place (id << genBits),
// or len(s) when none does: the revocation scan's compare (Listing 1 lines
// 42–44). scan_amd64.s loads sixteen words (two cache lines) as eight SSE2
// vectors and skips the block when no word in it holds any identity, as
// nearly every block of a revoked sector is; a block that holds one is
// compared against key in-vector, and only a block with a match is searched
// for its first matching lane. The word at the returned index held key when
// it was loaded; the caller re-loads it. A zero key, which every empty word
// matches, takes the scalar loop.
//
// The loads are plain, and that is enough on x86-TSO. The revoking Swap of
// rbias is a locked instruction, and no later load passes it. A reader the
// writer must wait for published with a CAS ordered before that Swap, so its
// whole word is visible to every load of the scan; the only concurrent
// writer of that word is its owner's release, which stores an empty one. So
// a miss, even on a vector element torn between the two, is a slot that is
// empty or being emptied: a reader that has already left its critical
// section. The argument does not need a 16-byte load to be single-copy
// atomic. A -race build and every other architecture run the atomic loop of
// scan_other.go instead.
//
//go:noescape
func scanFor(s []atomic.Uint64, key uint64) int
