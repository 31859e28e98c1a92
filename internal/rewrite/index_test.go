package rewrite

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
)

// TestTermIndex checks the one term index on its own: the places of a
// term come back in place order, two terms whose hashes agree in the
// indexed low 32 bits are told apart, an absent term has no places, and
// membership over random canonical lists matches a linear scan.
func TestTermIndex(t *testing.T) {
	t.Run("place-order", func(t *testing.T) {
		p, q := logic.NewBoolVar("ti_p"), logic.NewBoolVar("ti_q")
		ts := []logic.Term{p, q, p, p, q}
		var x termIndex
		for i := len(ts) - 1; i >= 0; i-- { // added out of order
			x.add(ts[i], int32(i))
		}
		x.sort()
		for _, c := range []struct {
			t    logic.Term
			want []int32
		}{{p, []int32{0, 2, 3}}, {q, []int32{1, 4}}} {
			var got []int32
			for _, e := range x.places(c.t) {
				if ts[e.place] == c.t {
					got = append(got, e.place)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("places of %s: %v, want %v", c.t, got, c.want)
			}
		}
	})

	t.Run("low-hash-collision", func(t *testing.T) {
		a, b := lowHashCollision(t)
		if uint32(logic.Hash(a)) != uint32(logic.Hash(b)) {
			t.Fatalf("%s and %s do not collide in the low 32 hash bits", a, b)
		}
		ts := []logic.Term{b, a, b}
		x := indexTerms(ts)
		if n := len(x.places(a)); n != 3 {
			t.Fatalf("%s shares its low hash with %s, yet %d places share it, want 3", a, b, n)
		}
		if !x.has(ts, a) || !x.has(ts, b) {
			t.Fatalf("colliding terms %s, %s not both found", a, b)
		}
		only := []logic.Term{b, b}
		if indexTerms(only).has(only, a) {
			t.Fatalf("%s found in a list holding only %s", a, b)
		}
	})

	t.Run("absent", func(t *testing.T) {
		ts := []logic.Term{logic.NewBoolVar("ti_p"), logic.NewBoolVar("ti_q")}
		x := indexTerms(ts)
		absent := logic.NewBoolVar("ti_absent")
		if got := x.places(absent); len(got) != 0 {
			t.Fatalf("absent term has places %v", got)
		}
		if x.has(ts, absent) {
			t.Fatal("absent term found")
		}
		if got := termIndex(nil).places(absent); len(got) != 0 {
			t.Fatalf("empty index has places %v", got)
		}
	})

	t.Run("random-lists", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		pool := make([]logic.Term, 40)
		for i := range pool {
			v := logic.NewBoolVar(fmt.Sprintf("ti_v%d", i%20))
			pool[i] = v
			if i >= 20 {
				pool[i] = logic.Not(v)
			}
		}
		for range 300 {
			ts := make([]logic.Term, r.Intn(30))
			for i := range ts {
				ts[i] = pool[r.Intn(len(pool))]
			}
			x := indexTerms(ts)
			for _, u := range pool {
				if got, want := x.has(ts, u), slices.Contains(ts, u); got != want {
					t.Fatalf("has(%s) = %v over %v, linear scan %v", u, got, ts, want)
				}
				var places []int32
				for _, e := range x.places(u) {
					if ts[e.place] == u {
						places = append(places, e.place)
					}
				}
				var want []int32
				for i, c := range ts {
					if c == u {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(places, want) {
					t.Fatalf("places of %s = %v over %v, want %v", u, places, ts, want)
				}
			}
		}
	})
}

// lowHashCollision returns two distinct integer literals whose hashes
// agree in their low 32 bits, found by a birthday search over
// spread-out values (it meets a pair within about 60,000 of them).
func lowHashCollision(t *testing.T) (logic.Term, logic.Term) {
	seen := map[uint32]int64{}
	for i := int64(1); i < 1<<20; i++ {
		v := i * -7046029254386353131 // odd: distinct values
		h := uint32(logic.Hash(&logic.IntLit{Val: v}))
		if w, ok := seen[h]; ok {
			return logic.NewInt(w), logic.NewInt(v)
		}
		seen[h] = v
	}
	t.Fatal("no low-hash collision among the generated literals")
	return nil, nil
}
