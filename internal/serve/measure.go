package serve

import (
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/phys"
)

// Session measures. A session is created under one interference measure
// and keeps it for life: the measure names the engine that scores every
// mutation, so it is part of the session's behavioral identity and is
// recorded in the trace header, the WAL create record, and the
// checkpoint header — replay, recovery, and replication all rebuild the
// session under the same engine, which is what keeps them byte-exact.
const (
	// MeasureGraph is the paper's receiver-centric disk measure
	// (core.Evaluator) — the default, and the implicit measure of every
	// trace or checkpoint written before measures existed.
	MeasureGraph = "graph"
	// MeasureSinr is the physical-model measure (phys.Evaluator):
	// per-receiver SINR power sums under phys.Default.
	MeasureSinr = "sinr"
)

// ValidMeasure reports whether the name is a known measure ("" counts:
// it means "the configured default"). Front doors use it to reject bad
// -measure values as usage errors before a manager exists.
func ValidMeasure(measure string) bool {
	_, err := normalizeMeasure(measure)
	return err == nil
}

// normalizeMeasure maps the empty string to the graph default and
// validates the name.
func normalizeMeasure(measure string) (string, error) {
	switch measure {
	case "", MeasureGraph:
		return MeasureGraph, nil
	case MeasureSinr:
		return MeasureSinr, nil
	}
	return "", fmt.Errorf("serve: unknown measure %q (want %q or %q)", measure, MeasureGraph, MeasureSinr)
}

// engineFor picks the engine factory for a measure: phys.Evaluator for
// sinr sessions, and for graph sessions Config.Engine (the
// test-injection override for oracle shadows; nil selects
// core.Evaluator).
func (m *Manager) engineFor(measure string) dynamic.EngineFactory {
	if measure == MeasureSinr {
		return phys.NewMeasure
	}
	return m.cfg.Engine
}
