package engine

// Timeline support: the helpers the speculative event loop uses to feed
// an attached obs.Timeline. Everything here is observational — nothing
// reads back into the simulation — and nothing runs when Config.Timeline
// is nil.

import (
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/obs"
)

// timelineRefs renders a region's reference table for timeline
// attribution, indexed by dense ref ID (the same ID timeline events carry
// in Event.Ref). Text is ir.Ref.AccessText ("access var[subs]"), the
// rendering label tables use, so squash-attribution tables line up with
// them.
func timelineRefs(r *ir.Region, lab *idem.Result) []obs.RefInfo {
	out := make([]obs.RefInfo, len(r.Refs))
	for i, ref := range r.Refs {
		out[i] = obs.RefInfo{
			Text:     ref.AccessText(),
			Label:    lab.Label(ref).String(),
			Category: lab.Category(ref).String(),
		}
	}
	return out
}

// sinceSpawn is the cycles an instance has been running at time t, used
// as the duration of commit and squash slices. Squash-restart resets the
// spawn stamp, so a re-executed instance's slice covers only its latest
// attempt; the clamp guards the degenerate same-cycle case.
func sinceSpawn(t, spawn int64) int64 {
	if d := t - spawn; d > 0 {
		return d
	}
	return 0
}
