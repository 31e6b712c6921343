package kvs

import (
	"github.com/bravolock/bravo/internal/rwl"
)

// HashCache is the persistent-cache hash table of rocksdb's
// hash_table_bench (§5.6): "a central shared hash table ... protected by a
// reader-writer lock", stressed by one inserter thread, one eraser thread
// and T lookup threads.
type HashCache struct {
	lock rwl.RWLock
	data map[uint64]*CacheEntry
}

// CacheEntry is one cached block.
type CacheEntry struct {
	Key  uint64
	Data []byte
}

// NewHashCache returns an empty cache guarded by a lock from mkLock.
func NewHashCache(mkLock rwl.Factory) *HashCache {
	return &HashCache{lock: mkLock(), data: make(map[uint64]*CacheEntry)}
}

// Populate pre-fills the cache with n entries (the benchmark pre-populates
// before the measurement interval).
func (c *HashCache) Populate(n int, blockSize int) {
	c.lock.Lock()
	for i := 0; i < n; i++ {
		c.data[uint64(i)] = &CacheEntry{Key: uint64(i), Data: make([]byte, blockSize)}
	}
	c.lock.Unlock()
}

// Lookup reads an entry under the read lock.
func (c *HashCache) Lookup(key uint64) (*CacheEntry, bool) {
	tok := c.lock.RLock()
	e, ok := c.data[key]
	c.lock.RUnlock(tok)
	return e, ok
}

// Insert adds an entry under the write lock.
func (c *HashCache) Insert(e *CacheEntry) {
	c.lock.Lock()
	c.data[e.Key] = e
	c.lock.Unlock()
}

// Erase removes an entry under the write lock, reporting whether it existed.
func (c *HashCache) Erase(key uint64) bool {
	c.lock.Lock()
	_, ok := c.data[key]
	if ok {
		delete(c.data, key)
	}
	c.lock.Unlock()
	return ok
}
