package core_test

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/phys"
)

// TestInvalidRadiusLeavesEngineUnchanged holds both measure engines to
// the sender side's validation contract: a negative or NaN radius
// panics in SetRadius, GrowTo and BatchSet before anything is written,
// so an engine that recovers from the panic (as the serving layer does)
// still agrees with the naive reference, and keeps doing so afterwards.
func TestInvalidRadiusLeavesEngineUnchanged(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0)}
	engines := map[string]func() *oracle.DiffEvaluator{
		"graph": func() *oracle.DiffEvaluator { return oracle.NewDiffEvaluator(pts) },
		"sinr":  func() *oracle.DiffEvaluator { return oracle.NewDiffPhysEvaluator(pts, phys.Default()) },
	}
	nan, inf := math.NaN(), math.Inf(1)
	ops := []struct {
		name string
		op   func(d *oracle.DiffEvaluator)
	}{
		{"BatchSet negative", func(d *oracle.DiffEvaluator) { d.BatchSet([]float64{2, -1, 0}, 0) }},
		{"BatchSet NaN", func(d *oracle.DiffEvaluator) { d.BatchSet([]float64{2, nan, 0}, 0) }},
		{"SetRadius negative", func(d *oracle.DiffEvaluator) { d.SetRadius(1, -1) }},
		{"SetRadius NaN", func(d *oracle.DiffEvaluator) { d.SetRadius(1, nan) }},
		{"SetRadius NaN on silent node", func(d *oracle.DiffEvaluator) { d.SetRadius(2, nan) }},
		{"GrowTo NaN", func(d *oracle.DiffEvaluator) { d.GrowTo(1, nan) }},
		{"BatchSet +Inf", func(d *oracle.DiffEvaluator) { d.BatchSet([]float64{2, inf, 0}, 0) }},
		{"SetRadius +Inf", func(d *oracle.DiffEvaluator) { d.SetRadius(1, inf) }},
		{"SetRadius +Inf on silent node", func(d *oracle.DiffEvaluator) { d.SetRadius(2, inf) }},
		{"GrowTo +Inf", func(d *oracle.DiffEvaluator) { d.GrowTo(1, inf) }},
	}
	for measure, mk := range engines {
		for _, tc := range ops {
			t.Run(measure+"/"+tc.name, func(t *testing.T) {
				d := mk()
				d.SetRadius(0, 0.6)
				d.SetRadius(1, 0.3)
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					tc.op(d)
					return false
				}()
				if !panicked {
					t.Fatal("invalid radius accepted")
				}
				if err := d.Verify(); err != nil {
					t.Fatalf("after the panic: %v", err)
				}
				d.SetRadius(2, 0.7)
				if err := d.Verify(); err != nil {
					t.Fatalf("after a valid update: %v", err)
				}
			})
		}
	}
}
