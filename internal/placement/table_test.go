package placement

import (
	"math/rand"
	"testing"
)

// TestTableMatchesDenseModel drives tables over bases of several sizes,
// page multiples and not, with random Set, Get and Reset, biased to the
// indices around page edges, and checks every read against a dense
// slice that Reset refills from the base.
func TestTableMatchesDenseModel(t *testing.T) {
	const page = 1 << pageBits
	for _, n := range []int{1, page - 1, page, page + 1, 3*page + 17} {
		base := Perm(uint64(n), n)
		tab := NewTable(base)
		model := append([]uint32(nil), base...)
		rng := rand.New(rand.NewSource(int64(n)))
		index := func() uint32 {
			if rng.Intn(2) == 0 { // a page edge, or next to one
				edge := rng.Intn(n/page+1) * page
				i := edge + rng.Intn(3) - 1
				return uint32(min(max(i, 0), n-1))
			}
			return uint32(rng.Intn(n))
		}
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(100); {
			case r < 45:
				i, v := index(), rng.Uint32()
				tab.Set(i, v)
				model[i] = v
			case r < 99:
				if i := index(); tab.Get(i) != model[i] {
					t.Fatalf("n=%d op %d: Get(%d) = %d, want %d", n, op, i, tab.Get(i), model[i])
				}
			default:
				tab.Reset()
				copy(model, base)
			}
		}
		for i := range uint32(n) {
			if tab.Get(i) != model[i] {
				t.Fatalf("n=%d: Get(%d) = %d, want %d", n, i, tab.Get(i), model[i])
			}
		}
		tab.Reset()
		for i := range uint32(n) {
			if tab.Get(i) != base[i] {
				t.Fatalf("n=%d: Get(%d) = %d after Reset, want the base's %d", n, i, tab.Get(i), base[i])
			}
		}
		if base2 := Perm(uint64(n), n); &base2[0] != &base[0] || !equal(base2, shuffle(uint64(n), n)) {
			t.Fatalf("n=%d: the table wrote its base", n)
		}
	}
}

func equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTableResetReusesPages: after a Reset the table backs writes with
// the pages it detached, so rewriting the same pages allocates nothing,
// and a page written after the Reset starts from the base, not from
// what the page held before.
func TestTableResetReusesPages(t *testing.T) {
	base := Perm(3, 5<<pageBits)
	tab := NewTable(base)
	write := func() {
		for pi := uint32(0); pi < 5; pi += 2 {
			tab.Set(pi<<pageBits+7, 1)
		}
	}
	write()
	tab.Reset()
	if allocs := testing.AllocsPerRun(10, func() { write(); tab.Reset() }); allocs != 0 {
		t.Errorf("rewriting reset pages allocated %v times", allocs)
	}
	tab.Set(2<<pageBits, 9) // reuses a page that held writes at other offsets
	for i := range uint32(len(base)) {
		want := base[i]
		if i == 2<<pageBits {
			want = 9
		}
		if tab.Get(i) != want {
			t.Fatalf("Get(%d) = %d, want %d", i, tab.Get(i), want)
		}
	}
}
