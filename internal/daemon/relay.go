// Relay feed sessions: the daemon side of the relay tier. A relay
// introduces itself like any client (Hello), then sends RelaySub with a
// channel bitmask instead of subscribing queries. From that point the
// session is a feed: its ring subscription is rebound onto every masked
// channel, and the same forwarder direct sessions use pumps the shared
// encode-once answer frames onto the relay's connection, so the bytes a
// relay re-fans out downstream are identical to what a direct client
// would have received — sequence numbers included.
//
// The relay's own downstream clients stay first-class citizens of the
// root's planning problem: their Hello/Subscribe/Unsubscribe/Refresh/Bye
// frames arrive wrapped in TypeRelayCtl, are registered under the
// client's global id, and their per-cycle channel assignments travel
// back as wrapped Assigned frames on the relay session. Only the data
// plane is deduplicated — each answer frame crosses the daemon→relay
// link once, no matter how many downstream sessions subscribe to its
// channel.
package daemon

import (
	"errors"
	"fmt"

	"qsub/internal/query"
	"qsub/internal/trace"
	"qsub/internal/wire"
)

// relayClient is one downstream client routed through a relay session:
// the relay that owns it and the query ids it registered, so relay
// teardown (or a wrapped Bye) releases its subscriptions.
type relayClient struct {
	owner   *session
	queries map[query.ID]struct{}
}

// relayRoute is a snapshot row of the routing table for RunCycle's
// assignment pass.
type relayRoute struct {
	id    int
	owner *session
}

// relayRoutes snapshots the downstream-client routing table.
func (d *Daemon) relayRoutes() []relayRoute {
	d.relayMu.Lock()
	defer d.relayMu.Unlock()
	routes := make([]relayRoute, 0, len(d.relayClients))
	for id, st := range d.relayClients {
		routes = append(routes, relayRoute{id: id, owner: st.owner})
	}
	return routes
}

// handleRelay upgrades a session into a relay feed and runs its control
// loop until disconnect. Called from handle with the session already
// registered (and its predecessor superseded); the deferred dropSession
// there releases the feeds and the routed clients on exit.
func (d *Daemon) handleRelay(sess *session, rs wire.RelaySub) error {
	channels := wire.MaskChannels(rs.Mask, d.net.Channels())
	if len(channels) == 0 {
		sess.sendError("relay subscription selects no channels")
		return fmt.Errorf("daemon: relay %d subscribed an empty channel set", sess.ID)
	}
	// The feed is a subscription on the channel set that replaces the
	// session's empty one. The ack goes on the old ring, which the
	// forwarder drains before the new one, so the relay reads it before
	// the first answer frame.
	if !sess.Enqueue(wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{
		Hop: 1, Channels: d.net.Channels(),
	})) {
		return errors.New("daemon: session superseded")
	}
	sub, err := d.net.SubscribeSet(channels, d.SubscriberBuffer, d.SlowPolicy)
	if err != nil {
		return fmt.Errorf("daemon: relay %d feed: %w", sess.ID, err)
	}
	if !sess.Attach(d.net, sub) {
		return errors.New("daemon: session superseded")
	}
	d.metrics.RelaySessions.Add(1)
	defer d.metrics.RelaySessions.Add(-1)
	d.logf("daemon: relay %d feeding %d channels", sess.ID, len(channels))

	for {
		ft, payload, err := d.readFrame(sess.Conn())
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeRelayCtl:
			rc, err := wire.UnmarshalRelayCtl(payload)
			if err != nil {
				return err
			}
			if err := d.handleRelayCtl(sess, rc); err != nil {
				return err
			}
		case wire.TypeRefresh:
			// The relay itself lost its upstream stream (reconnect) and
			// wants the next cycle published as full answers.
			d.planMu.Lock()
			d.refreshForce = true
			d.planMu.Unlock()
			d.logf("daemon: relay %d requested a full refresh", sess.ID)
		case wire.TypeBye:
			return nil
		default:
			return fmt.Errorf("daemon: unexpected frame type %d from relay session", ft)
		}
	}
}

// handleRelayCtl processes one wrapped control frame from a relay
// session on behalf of downstream client rc.ClientID.
func (d *Daemon) handleRelayCtl(sess *session, rc wire.RelayCtl) error {
	switch rc.Inner {
	case wire.TypeHello:
		// Registers (or re-homes, after a relay reconnect/supersede) the
		// client's route. The inner Hello payload carries the same id as
		// the wrapper; the wrapper is authoritative.
		d.routeRelayClient(rc.ClientID, sess)
	case wire.TypeSubscribe:
		sub, err := wire.UnmarshalSubscribe(rc.Payload)
		if err != nil {
			return err
		}
		if err := d.srv.Subscribe(rc.ClientID, sub.Query); err != nil {
			sess.sendRelayError(rc.ClientID, err.Error())
			return nil
		}
		st := d.routeRelayClient(rc.ClientID, sess)
		d.relayMu.Lock()
		st.queries[sub.Query.ID] = struct{}{}
		d.relayMu.Unlock()
		d.markDirty()
		d.record(trace.Event{Kind: trace.KindSubscribe,
			ClientID: rc.ClientID, QueryID: uint64(sub.Query.ID)})
	case wire.TypeUnsubscribe:
		unsub, err := wire.UnmarshalUnsubscribe(rc.Payload)
		if err != nil {
			return err
		}
		if !d.srv.Unsubscribe(rc.ClientID, unsub.ID) {
			sess.sendRelayError(rc.ClientID, fmt.Sprintf("no subscription with id %d", unsub.ID))
			return nil
		}
		d.relayMu.Lock()
		if st := d.relayClients[rc.ClientID]; st != nil {
			delete(st.queries, unsub.ID)
		}
		d.relayMu.Unlock()
		d.markDirty()
		d.record(trace.Event{Kind: trace.KindUnsubscribe,
			ClientID: rc.ClientID, QueryID: uint64(unsub.ID)})
	case wire.TypeReady:
		// Synchronization hint, same as on direct sessions.
	case wire.TypeRefresh:
		d.planMu.Lock()
		d.refreshForce = true
		d.planMu.Unlock()
	case wire.TypeBye:
		d.dropRelayClient(rc.ClientID, sess)
	default:
		return fmt.Errorf("daemon: relay ctl wraps unsupported frame type %d", rc.Inner)
	}
	return nil
}

// routeRelayClient registers (or re-homes) a downstream client's route
// and returns its state.
func (d *Daemon) routeRelayClient(clientID int, owner *session) *relayClient {
	d.relayMu.Lock()
	defer d.relayMu.Unlock()
	st := d.relayClients[clientID]
	if st == nil {
		st = &relayClient{queries: make(map[query.ID]struct{})}
		d.relayClients[clientID] = st
	}
	st.owner = owner
	return st
}

// dropRelayClient releases one downstream client's subscriptions, if the
// calling relay session still owns its route.
func (d *Daemon) dropRelayClient(clientID int, owner *session) {
	d.relayMu.Lock()
	st := d.relayClients[clientID]
	if st == nil || st.owner != owner {
		d.relayMu.Unlock()
		return
	}
	delete(d.relayClients, clientID)
	ids := make([]query.ID, 0, len(st.queries))
	for id := range st.queries {
		ids = append(ids, id)
	}
	d.relayMu.Unlock()
	for _, id := range ids {
		d.srv.Unsubscribe(clientID, id)
	}
	if len(ids) > 0 {
		d.markDirty()
	}
}

// releaseRelayClients releases every downstream client routed through a
// finished relay session. The relay re-registers them wholesale after it
// reconnects (the daemon keeps no cross-connection relay state), so a
// relay blip costs one unsubscribe/resubscribe churn and one replan —
// the same contract direct sessions have.
func (d *Daemon) releaseRelayClients(owner *session) {
	type drop struct {
		id  int
		ids []query.ID
	}
	d.relayMu.Lock()
	var drops []drop
	for id, st := range d.relayClients {
		if st.owner != owner {
			continue
		}
		delete(d.relayClients, id)
		dr := drop{id: id, ids: make([]query.ID, 0, len(st.queries))}
		for qid := range st.queries {
			dr.ids = append(dr.ids, qid)
		}
		drops = append(drops, dr)
	}
	d.relayMu.Unlock()
	released := 0
	for _, dr := range drops {
		for _, qid := range dr.ids {
			d.srv.Unsubscribe(dr.id, qid)
			released++
		}
	}
	if released > 0 {
		d.markDirty()
		d.logf("daemon: relay %d gone, released %d downstream clients (%d subscriptions)",
			owner.ID, len(drops), released)
	}
}

// sendRelayError wraps an Error frame for a downstream client.
func (s *session) sendRelayError(clientID int, msg string) {
	s.Enqueue(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{
		ClientID: clientID,
		Inner:    wire.TypeError,
		Payload:  wire.MarshalError(wire.Error{Msg: msg}),
	}))
}
