// Quickstart: the paper's Figure 2 scenario and the exponential node
// chain, through the public rim API.
//
// It builds a five-node topology where node u is disturbed not only by
// its direct neighbor but by a distant node whose transmission disk
// reaches it (I(u) = 2), then shows the headline highway result: the
// linearly connected exponential chain suffers interference n−2 while
// the scan-line algorithm A_exp stays near √n.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	rim "repro"
)

func main() {
	// --- Figure 2: interference happens at the receiver. ---------------
	pts := []rim.Point{
		rim.Pt(0, 0),   // u
		rim.Pt(0.3, 0), // a — u's neighbor
		rim.Pt(1.0, 0), // v — its farthest neighbor lies beyond u's range
		rim.Pt(2.2, 0), // b — v's farthest neighbor
		rim.Pt(2.5, 0), // e
	}
	topo := rim.NewGraph(5)
	link := func(a, b int) { topo.AddEdge(a, b, pts[a].Dist(pts[b])) }
	link(0, 1)
	link(1, 2)
	link(2, 3)
	link(3, 4)

	iv := rim.Interference(pts, topo)
	radii := rim.Radii(pts, topo)
	fmt.Println("Figure 2 — a five-node topology:")
	for v := range pts {
		fmt.Printf("  node %d at x=%.1f  r=%.1f  I(v)=%d\n", v, pts[v].X, radii[v], iv[v])
	}
	fmt.Printf("node u=0 is covered by its neighbor AND by node 2 (r=1.2 ≥ |u,v|=1.0): I(u) = %d\n\n", iv[0])

	// --- The exponential node chain (Section 5.1). ----------------------
	n := 40
	chain := rim.ExpChain(n, 1)
	linI := rim.Interference(chain, rim.Linear(chain)).Max()
	aexpI := rim.Interference(chain, rim.AExp(chain)).Max()
	fmt.Printf("Exponential chain, n=%d:\n", n)
	fmt.Printf("  linearly connected: I = %d (= n-2; Figure 7)\n", linI)
	fmt.Printf("  A_exp scan-line:    I = %d (Theorem 5.1 bound %d, √n lower bound %d)\n",
		aexpI, rim.AExpBound(n), rim.ExpChainLowerBound(n))

	// --- And the exact optimum, for a size the solver can prove. --------
	small := rim.ExpChain(10, 1)
	res := rim.OptimalExact(small)
	fmt.Printf("\nExact optimum on a 10-node chain: I = %d (proved: %v)\n", res.Interference, res.Exact)
	// The optimum is a radius assignment; RealizeForest turns it into a
	// topology whose interference is at most the assignment's.
	fmt.Println("edges of one optimal topology:")
	for _, e := range rim.RealizeForest(small, res.Radii).SortedEdges() {
		fmt.Printf("  (%d,%d) length %.4g\n", e.U, e.V, e.W)
	}
}
