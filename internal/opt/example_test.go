package opt_test

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/opt"
)

// The exact solver proves the minimum interference of small instances —
// here the 10-node exponential chain, matching Theorem 5.2's Ω(√n).
func ExampleExact() {
	pts := gen.ExpChain(10, 1)
	res := opt.Exact(pts)
	fmt.Println("optimum:", res.Interference, "proved:", res.Exact)
	fmt.Println("edges:", opt.RealizeForest(pts, res.Radii).M())
	// Output:
	// optimum: 4 proved: true
	// edges: 9
}
