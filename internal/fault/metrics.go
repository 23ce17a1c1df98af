package fault

import "bsdtrace/internal/obs"

// PublishReports copies each crash-sweep report's loss totals into the
// registry as "<prefix>.<config label>.<counter>": sampled crash
// points, and the blocks and bytes a crash at each point would have
// destroyed, summed over the sweep. Crash points and replay are
// deterministic, so these counters belong to the manifest's canonical
// surface. No-op when reg is nil or disabled.
func PublishReports(reg *obs.Registry, prefix string, reps []*Report) {
	if !reg.Enabled() {
		return
	}
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		p := prefix + "." + rep.Config.Label()
		var blocks, bytes int64
		for _, pt := range rep.Points {
			blocks += pt.Blocks
			bytes += pt.Bytes
		}
		reg.Counter(p + ".crash_points").Set(int64(len(rep.Points)))
		reg.Counter(p + ".lost_blocks_total").Set(blocks)
		reg.Counter(p + ".lost_bytes_total").Set(bytes)
	}
}
