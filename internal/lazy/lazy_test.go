package lazy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPopIsExactArgmin: whatever lower bounds the candidates were pushed
// under, and however their exact costs rise between pops, each Pop
// returns the live candidate with the least exact (cost, w, u, v) key —
// the argmin a full rescan would pick — and drops dead ones for good.
func TestPopIsExactArgmin(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		exact := map[[2]int]int{}
		dead := map[[2]int]bool{}
		var h Heap
		var live []Cand
		for i := 0; i < n; i++ {
			c := Cand{W: float64(rng.Intn(8)), U: rng.Intn(6), V: i}
			cost := rng.Intn(10)
			exact[[2]int{c.U, c.V}] = cost
			c.Cost = cost - rng.Intn(cost+1) // any lower bound
			h.Push(c)
			live = append(live, c)
		}
		key := func(c Cand) [2]int { return [2]int{c.U, c.V} }
		for {
			// Costs only rise; some candidates die.
			for _, c := range live {
				if rng.Intn(4) == 0 {
					exact[key(c)] += rng.Intn(3)
				}
				if rng.Intn(10) == 0 {
					dead[key(c)] = true
				}
			}
			want, found := Cand{}, false
			for _, c := range live {
				if dead[key(c)] {
					continue
				}
				c.Cost = exact[key(c)]
				if !found || c.less(want) {
					want, found = c, true
				}
			}
			got, ok := h.Pop(
				func(c Cand) bool { return dead[key(c)] },
				func(c Cand) int { return exact[key(c)] })
			if ok != found || got != want {
				t.Logf("seed %d: Pop = %+v, %v; rescan argmin %+v, %v", seed, got, ok, want, found)
				return false
			}
			if !ok {
				return len(h.items) == 0
			}
			dead[key(got)] = true
		}
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
