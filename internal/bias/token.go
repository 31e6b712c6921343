package bias

// SlotToken is a fast-path read acquisition token: the visible-readers
// table slot index packed with the slot generation captured at publication
// time. The paper requires "the slot value … passed from the read lock
// operator to the corresponding unlock" (§3); the generation rides along so
// the unlock can prove it is the one matching the publication (see
// Table.ClearOwned) — the always-on unbalanced-unlock guard.
//
// Layout (chosen to compose with the rwl.Token convention): the slot index
// occupies the low 32 bits, the generation bits 32 to 32+genBits. Wrapping
// locks tag the whole thing with their own discriminator bit (core uses
// bit 63), which the layout leaves free.
type SlotToken uint64

// genBits is the width of the generation, in a token and in the low bits of
// a table slot word (the identity fills the 64−genBits above it, see checkID).
// A stale token escapes only if the slot is emptied an exact multiple of
// 2^genBits times between the two unlocks — far beyond any real double-unlock
// window, and the guard is a misuse detector, not a security boundary.
const genBits = 16

// genMask extracts the comparable generation bits.
const genMask = (1 << genBits) - 1

// makeSlotToken packs a slot index and its captured generation.
func makeSlotToken(idx, gen uint32) SlotToken {
	return SlotToken(uint64(gen&genMask)<<32 | uint64(idx))
}

// Index returns the table slot index.
func (t SlotToken) Index() uint32 { return uint32(t) }

// Gen returns the captured slot generation (low genBits bits significant).
func (t SlotToken) Gen() uint32 { return uint32(t>>32) & genMask }
