package memsys

import (
	"fmt"
	"sync/atomic"
)

// WordBytes is the size of every memory access.
const WordBytes = 8

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / WordBytes
)

type page [pageWords]int64

// Image is the paged, word-addressable backing store shared by all cores.
// Addresses are byte addresses and must be WordBytes-aligned for
// architectural accesses. The image size is a power of two and names the
// address space, not an allocation: a directory holds one slot per 4 KiB
// page, and a page is allocated on the first non-zero store into it. A
// load from an absent page reads 0 and allocates nothing, so speculative
// wrong-path loads stay free. Norm wraps any address into range, which
// the core model uses to keep wrong-path accesses harmless.
//
// Concurrent use: goroutines may store to distinct words at once (the
// machine's epoch workers do), including two first touches of one absent
// page. Slots are atomic and a new page is installed with a
// compare-and-swap, so the loser of such a race adopts the winner's page
// and no store is lost. Accesses to the same word still need outside
// synchronization.
type Image struct {
	pages []atomic.Pointer[page]
	mask  int64 // byte-address mask (size-1, with low 3 bits cleared by Norm)
}

// NewImage returns an image of the given size in bytes, rounded up to the
// next power of two (minimum 1 KiB). It allocates only the page
// directory; an image smaller than a page has a single slot.
func NewImage(sizeBytes int64) *Image {
	size := int64(1024)
	for size < sizeBytes {
		size <<= 1
	}
	return &Image{
		pages: make([]atomic.Pointer[page], (size+pageBytes-1)/pageBytes),
		mask:  size - 1,
	}
}

// Size returns the image size in bytes.
func (im *Image) Size() int64 { return im.mask + 1 }

// Norm wraps an arbitrary (possibly wrong-path) byte address into a valid
// aligned address.
func (im *Image) Norm(addr int64) int64 {
	return addr & im.mask &^ (WordBytes - 1)
}

// Valid reports whether addr is an in-range, aligned architectural address.
func (im *Image) Valid(addr int64) bool {
	return addr >= 0 && addr <= im.mask && addr%WordBytes == 0
}

// Load returns the word at addr (normalized); 0 if its page is absent.
func (im *Image) Load(addr int64) int64 {
	a := im.Norm(addr)
	p := im.pages[a>>pageShift].Load()
	if p == nil {
		return 0
	}
	return p[a&(pageBytes-1)/WordBytes]
}

// Store writes the word at addr (normalized). Storing 0 into an absent
// page is a no-op.
func (im *Image) Store(addr, val int64) {
	a := im.Norm(addr)
	slot := &im.pages[a>>pageShift]
	p := slot.Load()
	if p == nil {
		if val == 0 {
			return
		}
		p = install(slot)
	}
	p[a&(pageBytes-1)/WordBytes] = val
}

// install allocates a zeroed page into an absent slot. When another
// goroutine installs one first, that page wins and is returned.
func install(slot *atomic.Pointer[page]) *page {
	p := new(page)
	if slot.CompareAndSwap(nil, p) {
		return p
	}
	return slot.Load()
}

// CompareAndSwap replaces the word at addr with new if it currently
// equals old. It is atomic with respect to the simulation loop, not to
// other goroutines: like Store, it may race only with accesses to other
// words, and it installs an absent page by the same compare-and-swap
// rule (an absent page reads 0, so a successful swap to 0 allocates
// nothing).
func (im *Image) CompareAndSwap(addr, old, new int64) bool {
	if im.Load(addr) != old {
		return false
	}
	im.Store(addr, new)
	return true
}

// Pages returns the number of allocated pages; the image's footprint is
// Pages() × 4 KiB plus the directory.
func (im *Image) Pages() int {
	n := 0
	for i := range im.pages {
		if im.pages[i].Load() != nil {
			n++
		}
	}
	return n
}

// Range calls f for every non-zero word in address order. Pages that are
// present but hold only zeros (an aborted epoch can leave one) visit
// nothing, so the result depends only on the image's contents.
func (im *Image) Range(f func(addr, val int64)) {
	for i := range im.pages {
		p := im.pages[i].Load()
		if p == nil {
			continue
		}
		base := int64(i) << pageShift
		for j, v := range p {
			if v != 0 {
				f(base+int64(j)*WordBytes, v)
			}
		}
	}
}

// Layout is a simple bump allocator over an Image's address space, used by
// kernels to place named globals and arrays. It has no free operation: a
// kernel builds its whole data layout once.
type Layout struct {
	next  int64
	limit int64
	names map[string]int64
	order []NamedRegion
}

// NamedRegion records one named allocation of a Layout: base byte
// address and length in words. The static scope analyzer consumes these
// as its region declarations.
type NamedRegion struct {
	Name  string
	Base  int64
	Words int64
}

// NewLayout returns a Layout allocating from [base, limit).
func NewLayout(base, limit int64) *Layout {
	if base%WordBytes != 0 {
		base += WordBytes - base%WordBytes
	}
	return &Layout{next: base, limit: limit, names: make(map[string]int64)}
}

// Word allocates one named word and returns its byte address.
func (l *Layout) Word(name string) int64 { return l.Array(name, 1) }

// Array allocates n contiguous named words and returns the base byte
// address. It panics if the region is exhausted or the name reused, since
// kernel layouts are static.
func (l *Layout) Array(name string, n int64) int64 {
	if _, dup := l.names[name]; dup {
		panic(fmt.Sprintf("memsys: duplicate layout name %q", name))
	}
	addr := l.next
	l.next += n * WordBytes
	if l.next > l.limit {
		panic(fmt.Sprintf("memsys: layout overflow allocating %q (%d words)", name, n))
	}
	l.names[name] = addr
	l.order = append(l.order, NamedRegion{Name: name, Base: addr, Words: n})
	return addr
}

// AlignTo advances the allocation pointer to the next multiple of align
// bytes (e.g. a cache-line boundary to avoid false sharing).
func (l *Layout) AlignTo(align int64) {
	if align <= 0 || align%WordBytes != 0 {
		panic(fmt.Sprintf("memsys: bad alignment %d", align))
	}
	if rem := l.next % align; rem != 0 {
		l.next += align - rem
	}
}

// Addr returns the address previously allocated under name.
func (l *Layout) Addr(name string) int64 {
	addr, ok := l.names[name]
	if !ok {
		panic(fmt.Sprintf("memsys: unknown layout name %q", name))
	}
	return addr
}

// End returns the first unallocated byte address.
func (l *Layout) End() int64 { return l.next }

// Regions returns every named allocation in allocation order.
func (l *Layout) Regions() []NamedRegion {
	return append([]NamedRegion(nil), l.order...)
}
