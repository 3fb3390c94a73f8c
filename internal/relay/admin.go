// Relay admin endpoint: the same read-only views a root daemon serves
// (/metrics, /healthz, /statusz), with the /statusz document carrying a
// relay stanza instead of a plan summary, so qsubtop pointed at a relay
// shows the upstream link next to the fan-out throughput.
package relay

import (
	"encoding/json"
	"net/http"

	"qsub/internal/daemon"
)

// Status collects the relay's /statusz document. It reuses the daemon's
// Status type — channel count, session count, metrics snapshot — with
// the Relay stanza filled and no plan (relays do not plan).
func (r *Relay) Status() daemon.Status {
	st := daemon.Status{
		Metrics: r.metrics.Snapshot(),
		Build:   daemon.ReadBuild(),
	}
	r.mu.Lock()
	st.Sessions = len(r.sessions)
	info := &daemon.RelayInfo{
		Upstream:   r.cfg.Upstream,
		Hop:        r.hop,
		Connected:  r.connected,
		Reconnects: uint64(r.connects - 1),
		Clients:    len(r.routes),
	}
	if r.connects == 0 {
		info.Reconnects = 0
	}
	st.Channels = r.upChannels
	if len(r.cfg.Channels) > 0 {
		info.Channels = len(r.cfg.Channels)
	} else {
		info.Channels = r.upChannels
	}
	r.mu.Unlock()
	st.Relay = info
	return st
}

// AdminMux builds the relay's admin HTTP handler.
func (r *Relay) AdminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.metrics.Registry.WritePrometheus(w); err != nil {
			r.logf("relay: /metrics write: %v", err)
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Status()); err != nil {
			r.logf("relay: /statusz write: %v", err)
		}
	})
	return mux
}
