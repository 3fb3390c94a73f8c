// Per-session lag tracking: after every cycle the daemon sweeps its
// sessions, compares each one's last-delivered sequence number against
// the channel head, and publishes fleet watermarks (worst seq lag,
// deepest queue, oldest staleness) as gauges plus a staleness histogram.
// /statusz additionally exposes the top-N laggiest sessions so an
// operator can name the slow consumers, not just count them.
package daemon

import "sort"

// SessionLag is one session's delivery-lag snapshot.
type SessionLag struct {
	ClientID int `json:"clientId"`
	// Channel is the session's current channel, -1 when unbound.
	Channel int `json:"channel"`
	// SeqLag is how many sequence numbers the session trails the
	// channel head (head seq minus last delivered seq).
	SeqLag uint64 `json:"seqLag"`
	// QueueDepth is the session's undelivered multicast queue length.
	QueueDepth int `json:"queueDepth"`
	// StalenessMs is how long ago the last frame was written to this
	// session, in milliseconds; 0 before any write.
	StalenessMs int64 `json:"stalenessMs"`
}

// sessionLags snapshots every connected session's lag at nowNano.
func (d *Daemon) sessionLags(nowNano int64) []SessionLag {
	d.mu.Lock()
	sessions := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.mu.Unlock()

	out := make([]SessionLag, 0, len(sessions))
	for _, s := range sessions {
		l := s.Lag(d.net, nowNano)
		out = append(out, SessionLag{ClientID: s.ID, Channel: l.Channel,
			SeqLag: l.SeqLag, QueueDepth: l.QueueDepth, StalenessMs: l.StalenessMs})
	}
	return out
}

// updateLagWatermarks recomputes the fleet lag gauges from a fresh
// session sweep and feeds the worst staleness into the
// qsub_session_lag_seconds histogram. With no sessions every watermark
// resets to zero, so a drained daemon reads as caught-up.
func (d *Daemon) updateLagWatermarks() {
	lags := d.sessionLags(d.clockNano())
	var maxSeqLag uint64
	var maxDepth int
	var maxStaleMs int64
	for _, l := range lags {
		if l.SeqLag > maxSeqLag {
			maxSeqLag = l.SeqLag
		}
		if l.QueueDepth > maxDepth {
			maxDepth = l.QueueDepth
		}
		if l.StalenessMs > maxStaleMs {
			maxStaleMs = l.StalenessMs
		}
	}
	d.metrics.SessionMaxSeqLag.Set(int64(maxSeqLag))
	d.metrics.SessionMaxQueueDepth.Set(int64(maxDepth))
	d.metrics.SessionMaxStaleMs.Set(maxStaleMs)
	if len(lags) > 0 {
		d.metrics.SessionLagSeconds.Observe(float64(maxStaleMs) / 1e3)
	}
}

// TopLaggards returns the n laggiest sessions, ordered by staleness
// then sequence lag (worst first), for /statusz and qsubtop.
func (d *Daemon) TopLaggards(n int) []SessionLag {
	lags := d.sessionLags(d.clockNano())
	sort.Slice(lags, func(i, j int) bool {
		if lags[i].StalenessMs != lags[j].StalenessMs {
			return lags[i].StalenessMs > lags[j].StalenessMs
		}
		return lags[i].SeqLag > lags[j].SeqLag
	})
	if n > 0 && len(lags) > n {
		lags = lags[:n]
	}
	return lags
}

// RecentCycles returns the pipeline ledger's retained records, oldest
// first.
func (d *Daemon) RecentCycles() []CycleRecord { return d.ledger.recent() }
