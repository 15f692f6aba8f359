package opt

import "repro/internal/obs"

// Optimizer metrics. The annealer counts moves locally in the loop and
// flushes once at the end, so the hot loop never touches shared atomics.
var (
	obsAnnealIters = obs.Default().Counter("rim_opt_anneal_iters_total",
		"Simulated-annealing iterations executed.")
	obsAnnealAccepted = obs.Default().Counter("rim_opt_anneal_accepted_total",
		"Annealing moves accepted (including downhill).")
	obsAnnealRejected = obs.Default().Counter("rim_opt_anneal_rejected_total",
		"Annealing moves rejected by the Metropolis test or feasibility.")
	obsAnnealShrinks = obs.Default().Counter("rim_opt_anneal_shrinks_total",
		"Annealing radius decreases checked for connectivity.")
	obsAnnealFallbacks = obs.Default().Counter("rim_opt_anneal_shrink_fallbacks_total",
		"Radius decreases the local certificate left to the whole-instance check (search budget exhausted).")
	obsExactVisited = obs.Default().Counter("rim_opt_exact_visited_total",
		"Branch-and-bound search-tree nodes visited.")
)
