package memsys

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestImageLoadFromAbsentPageAllocatesNothing(t *testing.T) {
	im := NewImage(64 << 20)
	for _, addr := range []int64{0, 8, pageBytes, 5*pageBytes + 16, im.Size() - 8, -8, 1 << 40} {
		if got := im.Load(addr); got != 0 {
			t.Errorf("Load(%d) = %d on a fresh image, want 0", addr, got)
		}
	}
	if n := im.Pages(); n != 0 {
		t.Errorf("loads allocated %d pages, want 0", n)
	}
}

func TestImageZeroStoreToAbsentPageAllocatesNothing(t *testing.T) {
	im := NewImage(1 << 20)
	im.Store(3*pageBytes+24, 0)
	if n := im.Pages(); n != 0 {
		t.Errorf("zero store allocated %d pages, want 0", n)
	}
	im.Store(3*pageBytes+24, 7)
	if n := im.Pages(); n != 1 {
		t.Errorf("non-zero store: %d pages present, want 1", n)
	}
	// A zero store to a present page writes as usual.
	im.Store(3*pageBytes+24, 0)
	if got := im.Load(3*pageBytes + 24); got != 0 {
		t.Errorf("zero store to a present page: read back %d, want 0", got)
	}
}

func TestImageNormWrapsAtSize(t *testing.T) {
	// 1 KiB is the minimum image and smaller than one page.
	for _, size := range []int64{1 << 10, 1 << 12, 1 << 20} {
		im := NewImage(size)
		if im.Size() != size {
			t.Fatalf("Size() = %d, want %d", im.Size(), size)
		}
		im.Store(im.Size()+8, 42)
		if got := im.Load(8); got != 42 {
			t.Errorf("size %d: store to Size()+8 read back at 8 as %d, want 42", size, got)
		}
		if got := im.Load(im.Size() + 8); got != 42 {
			t.Errorf("size %d: Load(Size()+8) = %d, want 42", size, got)
		}
		if n := im.Pages(); n != 1 {
			t.Errorf("size %d: %d pages present, want 1", size, n)
		}
	}
}

func TestImageCASOnAbsentPage(t *testing.T) {
	im := NewImage(1 << 20)
	const addr = 7*pageBytes + 8
	if im.CompareAndSwap(addr, 1, 2) {
		t.Error("CAS expecting 1 succeeded on an absent page (reads 0)")
	}
	if !im.CompareAndSwap(addr, 0, 0) {
		t.Error("CAS 0->0 failed on an absent page")
	}
	if n := im.Pages(); n != 0 {
		t.Errorf("failed CAS and CAS to 0 allocated %d pages, want 0", n)
	}
	if !im.CompareAndSwap(addr, 0, 5) {
		t.Error("CAS 0->5 failed on an absent page")
	}
	if got := im.Load(addr); got != 5 {
		t.Errorf("after CAS 0->5: Load = %d, want 5", got)
	}
}

func TestImageRangeVisitsNonZeroWordsInOrder(t *testing.T) {
	im := NewImage(1 << 20)
	stores := []struct{ addr, val int64 }{
		{9*pageBytes + 8, 3},
		{16, -1},
		{9 * pageBytes, 2},
		{2*pageBytes + 40, 0}, // absent page, no-op
		{pageBytes - 8, 1},
		{5*pageBytes + 64, 4},
		{5*pageBytes + 64, 0}, // leaves a present, all-zero page
	}
	for _, s := range stores {
		im.Store(s.addr, s.val)
	}
	want := []struct{ addr, val int64 }{
		{16, -1}, {pageBytes - 8, 1}, {9 * pageBytes, 2}, {9*pageBytes + 8, 3},
	}
	var got []struct{ addr, val int64 }
	im.Range(func(addr, val int64) { got = append(got, struct{ addr, val int64 }{addr, val}) })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Goroutines storing to distinct words of one absent page race to
// install it; every store must survive whichever install wins. Each
// round releases the goroutines together onto a fresh one-page image,
// so first touches collide often even on two CPUs. Run under -race to
// check the slot protocol as well.
func TestImageConcurrentFirstTouch(t *testing.T) {
	const goroutines = 4
	for round := 0; round < 2000; round++ {
		im := NewImage(pageBytes)
		var ready, done sync.WaitGroup
		var start atomic.Bool
		for g := 0; g < goroutines; g++ {
			ready.Add(1)
			done.Add(1)
			go func(g int) {
				defer done.Done()
				ready.Done()
				for !start.Load() {
					runtime.Gosched()
				}
				for w := int64(g); w < pageWords; w += goroutines {
					im.Store(w*WordBytes, w+1)
				}
			}(g)
		}
		ready.Wait()
		start.Store(true)
		done.Wait()
		for w := int64(0); w < pageWords; w++ {
			if got := im.Load(w * WordBytes); got != w+1 {
				t.Fatalf("round %d: word %d = %d, want %d", round, w, got, w+1)
			}
		}
	}
}
