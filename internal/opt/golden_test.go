package opt_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/phys"
)

// radiiHash is the FNV-64a of the radii's IEEE-754 bits, little-endian.
func radiiHash(radii []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range radii {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenAnneal4096 pins full-size walks, where the local shrink
// certificate's search budget runs out and the whole-instance check
// decides: n = 4096 uniform on squares of side 12 (one dense component),
// 25.6 and 40 (many components), seeds 1–3, the graph measure at 3000
// iterations and SINR at 500. The instance and the walk share the seed.
//
// At this size the best state is nearly always the MST start, so the
// radii hash pins the start and Interference its score; the accepted
// and rejected move counts pin the walk itself, since one differing
// feasibility verdict shifts every later rng draw. The table was
// written by the annealer that ran a whole-instance union-find on every
// decrease and built its start with dense Prim; do not regenerate it.
func TestGoldenAnneal4096(t *testing.T) {
	golden := []struct {
		side               float64
		seed               int64
		measure            string
		interference       int
		radii              uint64
		accepted, rejected int64
	}{
		{12, 1, "graph", 7, 0x40d9277c5054d5bd, 2199, 769},
		{12, 1, "sinr", 408025, 0x40d9277c5054d5bd, 460, 34},
		{12, 2, "graph", 6, 0x10164203dddf947c, 1997, 978},
		{12, 2, "sinr", 223201, 0x10164203dddf947c, 457, 39},
		{12, 3, "graph", 6, 0x6e7e5c6b4ccf8c7e, 2203, 758},
		{12, 3, "sinr", 197135, 0x6e7e5c6b4ccf8c7e, 438, 56},
		{25.6, 1, "graph", 7, 0xe1d1d221098d9255, 2364, 439},
		{25.6, 1, "sinr", 408025, 0xe1d1d221098d9255, 426, 40},
		{25.6, 2, "graph", 6, 0xff317998f162b02b, 2481, 351},
		{25.6, 2, "sinr", 223201, 0xff317998f162b02b, 426, 45},
		{25.6, 3, "graph", 6, 0x092e3240b84a00cb, 2557, 283},
		{25.6, 3, "sinr", 197135, 0x092e3240b84a00cb, 427, 47},
		{40, 1, "graph", 7, 0xb6286f74fe034289, 1972, 576},
		{40, 1, "sinr", 408025, 0xb6286f74fe034289, 332, 95},
		{40, 2, "graph", 6, 0xd8ad008be344f515, 2046, 502},
		{40, 2, "sinr", 223201, 0xd8ad008be344f515, 347, 88},
		{40, 3, "graph", 6, 0x2fc74319235940dc, 1947, 575},
		{40, 3, "sinr", 197135, 0x2fc74319235940dc, 334, 91},
	}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	counted := obs.On() // false under the obs_off build tag
	reg := obs.Default()
	accepted := reg.Counter("rim_opt_anneal_accepted_total", "")
	rejected := reg.Counter("rim_opt_anneal_rejected_total", "")
	fallbacks := reg.Counter("rim_opt_anneal_shrink_fallbacks_total", "")
	fb0 := fallbacks.Value()
	for _, g := range golden {
		f, iters := core.GraphMeasure, 3000
		if g.measure == "sinr" {
			f, iters = phys.NewMeasure, 500
		}
		pts := gen.UniformSquare(rand.New(rand.NewSource(g.seed)), 4096, g.side)
		a0, r0 := accepted.Value(), rejected.Value()
		res := opt.AnnealWith(f, pts, rand.New(rand.NewSource(g.seed)), iters)
		if res.Interference != g.interference || radiiHash(res.Radii) != g.radii {
			t.Errorf("side %v seed %d %s: I=%d radii %#016x, golden I=%d radii %#016x",
				g.side, g.seed, g.measure, res.Interference, radiiHash(res.Radii), g.interference, g.radii)
		}
		if da, dr := accepted.Value()-a0, rejected.Value()-r0; counted && (da != g.accepted || dr != g.rejected) {
			t.Errorf("side %v seed %d %s: %d accepted, %d rejected; golden %d, %d",
				g.side, g.seed, g.measure, da, dr, g.accepted, g.rejected)
		}
	}
	if counted && fallbacks.Value() == fb0 {
		t.Error("no walk fell back to the whole-instance check: the golden no longer covers that path")
	}
}
