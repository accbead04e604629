package ref

import (
	"testing"

	"sfence/internal/memsys"
)

func TestFirstImageDiff(t *testing.T) {
	a, b := memsys.NewImage(1<<20), memsys.NewImage(1<<20)
	for _, im := range []*memsys.Image{a, b} {
		im.Store(64, 1)
		im.Store(9000, 2)
	}
	// A present page holding only zeros equals an absent one.
	a.Store(20000, 5)
	a.Store(20000, 0)
	if addr, _, _, differ := firstImageDiff(a, b); differ {
		t.Fatalf("equal contents reported diverging at %d", addr)
	}
	b.Store(40000, 7) // only in b
	a.Store(9000, 3)  // both, different values: the lowest divergence
	a.Store(50000, 4) // only in a
	cases := []struct{ addr, va, vb int64 }{{9000, 3, 2}, {40000, 0, 7}, {50000, 4, 0}}
	for _, want := range cases {
		addr, va, vb, differ := firstImageDiff(a, b)
		if !differ || addr != want.addr || va != want.va || vb != want.vb {
			t.Fatalf("firstImageDiff = (%d, %d, %d, %v), want (%d, %d, %d, true)",
				addr, va, vb, differ, want.addr, want.va, want.vb)
		}
		b.Store(addr, va) // mend it and look for the next one
	}
	if addr, _, _, differ := firstImageDiff(a, b); differ {
		t.Errorf("mended images still diverge at %d", addr)
	}
}
