package seq

import "sync/atomic"

// StoreWords stores src into the first ⌈len(src)/8⌉ words of dst, packed
// little-endian with the last word zero-padded, and leaves every word after
// them as it was. It panics, before it stores anything, when len(dst) is
// shorter, whatever dst's capacity.
//
// StoreWords and Store are the stores of a sole writer whose readers either
// validate what they copied (a Count read section) or are ordered after it by
// a lock or, for Store, await it (a bias table slot's owner emptying it,
// Table.ReleaseHeld). Neither is a read-modify-write or orders a later load
// after the store. On amd64 (store_amd64.s) they are plain aligned MOVQs: an
// aligned 8-byte store is single-copy atomic, and x86-TSO orders a store after
// every earlier load and store — release order, never StoreLoad (Boehm, MSPC
// 2012). The assembly is opaque to the compiler, so no Go access moves across
// it. Every other architecture and every -race build use atomic.Uint64.Store
// (store_atomic.go), which the race detector and checkptr keep checking.
func StoreWords(dst []atomic.Uint64, src []byte) {
	storeWords(dst[:(len(src)+7)/8:len(dst)], src)
}
