package mem

// Hooks for the external tests, which need the runtime's segment layout (rt
// imports this package, so those tests cannot live inside it).

// TLBSlot returns the translation-cache slot of the page holding a.
func TLBSlot(a Addr) int { return int(tlbIndex(a)) }

// TLBMisses returns how many translations s's cache could not answer.
func (s *AddressSpace) TLBMisses() uint64 { return s.tlbMisses }
