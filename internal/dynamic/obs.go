package dynamic

import "repro/internal/obs"

// Maintainer metrics: event mix, drift-triggered rebuilds, and how much
// work the settle's connectivity repair actually does.
var (
	obsEvents = obs.Default().Counter("rim_dynamic_events_total",
		"Maintenance events applied (insert, remove, set-radius, anneal).")
	obsRebuilds = obs.Default().Counter("rim_dynamic_rebuilds_total",
		"Full greedy rebuilds (initial construction included).")
	obsRepairEdges = obs.Default().Counter("rim_dynamic_repair_edges_total",
		"Edges added by connectivity repair after departures and moves.")
	obsSettleVisited = obs.Default().Counter("rim_dynamic_settle_visited_total",
		"Topology adjacency visits made by settles exploring and relabeling touched components.")
	obsSettleScanned = obs.Default().Counter("rim_dynamic_settle_scanned_total",
		"Unit-disk queries made by settles looking for crossing UDG edges.")
	obsSettleCrossing = obs.Default().Counter("rim_dynamic_settle_crossing_total",
		"Crossing UDG edges settles collected for the repair's Kruskal, before keeping the lightest per component pair.")
)
