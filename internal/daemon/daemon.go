// Package daemon turns the subscription system into a network service: a
// TCP listener speaking the wire protocol, bridging connected clients to
// the in-process multicast network. Each connected client registers
// subscriptions, is told its channel assignment after every planning
// cycle, and receives the merged answers of its channel as TypeAnswer
// frames — the deployable version of the BADD dissemination loop (§2).
//
// Delivery runs on the shared fabric (internal/fabric): every session is
// one bounded multicast ring subscription drained by one forwarder, with
// a slow-consumer policy (default: evict), read-idle and per-flush write
// deadlines, a supersede rule so a reconnecting client id replaces its
// half-open predecessor, and context-based graceful shutdown that drains
// forwarders before closing connections.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/fabric"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/trace"
	"qsub/internal/wire"
)

// Default session-hardening parameters; see the matching Daemon fields.
const (
	DefaultWriteTimeout     = 10 * time.Second
	DefaultSubscriberBuffer = 256
)

// Daemon is the network front end of a subscription server. Plans are
// cached across cycles and recomputed only when subscriptions changed or
// the drift monitor reports that database churn invalidated the cost
// estimates (§11 dynamic scenario).
type Daemon struct {
	srv     *server.Server
	net     *multicast.Network
	metrics *metrics.Catalog

	mu       sync.Mutex
	sessions map[int]*session
	closed   bool

	// relayMu guards the downstream-client routing table: clients that
	// subscribed through a relay session, keyed by their global id (see
	// relay.go).
	relayMu      sync.Mutex
	relayClients map[int]*relayClient

	planMu       sync.Mutex
	cycle        *server.Cycle
	dirty        bool
	refreshForce bool // a client requested full answers on the next cycle
	estimate     float64
	drift        server.DriftMonitor
	replans      int

	wg sync.WaitGroup
	// Logf receives diagnostic messages; nil silences them.
	Logf func(format string, args ...any)
	// Trace, when set, records control-plane events (plans, publishes,
	// subscription changes, drift) as JSON lines.
	Trace *trace.Recorder

	// ReadIdleTimeout bounds how long a session may go without sending a
	// frame before it is dropped (half-open connection reaping). Zero
	// disables the idle check. Set before Serve.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each frame write to a session; a write that
	// cannot complete in time fails and the session is dropped. Zero
	// disables write deadlines. Set before Serve.
	WriteTimeout time.Duration
	// SubscriberBuffer is the per-session multicast delivery queue
	// depth, per channel the session listens on. Set before Serve.
	SubscriberBuffer int
	// SlowPolicy decides what a publish does when a session's delivery
	// queue is full (default multicast.Evict: the session is dropped and
	// counted, and the publish cycle never blocks). Set before Serve.
	SlowPolicy multicast.Policy
	// Now supplies publish timestamps and staleness clocks in UnixNano;
	// nil uses the wall clock. Tests inject a fixed clock so published
	// byte streams stay deterministic. Set before the first cycle.
	Now func() int64
	// DisableTimestamps turns off publish-timestamp stamping entirely,
	// shrinking answer frames by 9 bytes and reverting them to the
	// pre-timestamp wire format. Set before the first cycle.
	DisableTimestamps bool

	clockOnce sync.Once // installs the publish clock on the first cycle

	// ledger is the cycle pipeline ledger (see ledger.go); encodeNanos
	// accumulates encode-once marshalling time for the current cycle's
	// encode stage.
	ledger      cycleLedger
	encodeNanos atomic.Int64
}

// clockNano reads the daemon's clock (see Now).
func (d *Daemon) clockNano() int64 {
	if d.Now != nil {
		return d.Now()
	}
	return time.Now().UnixNano()
}

// session is one connected TCP client (or relay feed): its delivery
// state on the fabric plus the query ids it registered.
type session struct {
	*fabric.Session

	mu      sync.Mutex
	queries map[query.ID]struct{} // query ids this session registered
	gone    bool                  // dropped or superseded
}

// trackQuery records a successfully registered query id. It reports
// false when the session is already being torn down, in which case the
// caller must release the registration itself.
func (s *session) trackQuery(id query.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return false
	}
	if s.queries == nil {
		s.queries = make(map[query.ID]struct{})
	}
	s.queries[id] = struct{}{}
	return true
}

func (s *session) untrackQuery(id query.ID) {
	s.mu.Lock()
	delete(s.queries, id)
	s.mu.Unlock()
}

// takeQueries flips the session into the gone state and hands the
// caller its tracked query ids for release.
func (s *session) takeQueries() []query.ID {
	s.mu.Lock()
	s.gone = true
	ids := make([]query.ID, 0, len(s.queries))
	for id := range s.queries {
		ids = append(ids, id)
	}
	s.queries = nil
	s.mu.Unlock()
	return ids
}

// sendError queues an Error frame for the session.
func (s *session) sendError(msg string) {
	s.Enqueue(wire.TypeError, wire.MarshalError(wire.Error{Msg: msg}))
}

// New creates a daemon over a relation with the given channel count and
// server configuration.
func New(rel *relation.Relation, channels int, cfg server.Config) (*Daemon, error) {
	mnet, err := multicast.NewNetwork(channels)
	if err != nil {
		return nil, err
	}
	// The daemon is always instrumented: a Catalog is cheap (a few
	// hundred atomics) and the admin endpoint needs one to serve.
	// Callers may pass their own via cfg.Metrics to share a registry.
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewCatalog(channels)
	}
	srv, err := server.New(rel, mnet, cfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		srv:          srv,
		net:          mnet,
		metrics:      cfg.Metrics,
		sessions:     make(map[int]*session),
		relayClients: make(map[int]*relayClient),

		WriteTimeout:     DefaultWriteTimeout,
		SubscriberBuffer: DefaultSubscriberBuffer,
		SlowPolicy:       multicast.Evict,
	}
	// Encode once per publish: each message is marshalled into a
	// complete TypeAnswer frame exactly once, and every forwarder writes
	// that shared immutable slice directly.
	mnet.SetEncoder(func(m multicast.Message) []byte {
		t0 := time.Now()
		buf := wire.AppendMessageFrame(nil, m)
		d.encodeNanos.Add(time.Since(t0).Nanoseconds())
		return buf
	})
	return d, nil
}

// Metrics returns the daemon's instrument catalog (never nil).
func (d *Daemon) Metrics() *metrics.Catalog { return d.metrics }

// Server exposes the underlying subscription server (for data loading and
// direct planning in tests).
func (d *Daemon) Server() *server.Server { return d.srv }

// Network exposes the daemon's multicast network (for delivery-layer
// stats in tests and status reporting).
func (d *Daemon) Network() *multicast.Network { return d.net }

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Serve accepts connections until ctx is canceled, the listener fails,
// or Close is called. Cancellation shuts down gracefully: the listener
// closes, every session's forwarder is canceled and drained, each
// session receives a Bye frame, and connections are closed.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close() // unblock Accept
		case <-stop:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				d.Shutdown()
				return nil
			}
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := d.handle(conn); err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
				d.logf("daemon: session error: %v", err)
			}
		}()
	}
}

// readFrame reads one frame under the daemon's idle deadline, counting
// expiries.
func (d *Daemon) readFrame(conn net.Conn) (uint8, []byte, error) {
	if d.ReadIdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.ReadIdleTimeout))
	}
	ft, payload, err := wire.ReadFrame(conn)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			d.metrics.SessionsExpired.Inc()
			d.metrics.SessionsExpiredIdle.Inc()
			return 0, nil, fmt.Errorf("daemon: session idle past %s: %w", d.ReadIdleTimeout, err)
		}
	}
	return ft, payload, err
}

// sessionSendBuffer is the socket send-buffer size requested for each
// session connection. The fan-out path writes bursts of small frames;
// each lands in the send queue as an skb whose true size the kernel
// accounts at 1-2 KiB regardless of payload, and the skbs are only
// freed on ACK — which a quiet receiver may delay tens of
// milliseconds. The Linux default budget (tcp_wmem[1] = 16 KiB) fits
// only a handful of such bursts, so a publish cycle's flush ends up
// blocked on ACK clocking instead of CPU. A 256 KiB budget absorbs a
// full cycle's burst per session; the kernel allocates it only as used.
const sessionSendBuffer = 256 << 10

// handle runs one client session: Hello, then subscription management
// until Bye or disconnect.
func (d *Daemon) handle(conn net.Conn) error {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(sessionSendBuffer) // best effort
	}
	ft, payload, err := d.readFrame(conn)
	if err != nil {
		return err
	}
	if ft != wire.TypeHello {
		return fmt.Errorf("daemon: expected Hello, got frame type %d", ft)
	}
	hello, err := wire.UnmarshalHello(payload)
	if err != nil {
		return err
	}
	// The session's ring subscription starts on no channel; RunCycle
	// binds it once the plan assigns one.
	sub, err := d.net.SubscribeSet(nil, d.SubscriberBuffer, d.SlowPolicy)
	if err != nil {
		return err
	}
	sess := &session{Session: fabric.New(hello.ClientID, conn, fabric.Options{
		WriteTimeout: d.WriteTimeout,
		Metrics:      d.metrics,
		Now:          d.clockNano,
		Channels:     d.net.Channels(),
		Logf:         d.Logf,
	})}
	sess.Attach(d.net, sub)

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		sess.Close()
		return errors.New("daemon: closed")
	}
	old := d.sessions[hello.ClientID]
	d.sessions[hello.ClientID] = sess
	d.metrics.SessionsConnected.Set(int64(len(d.sessions)))
	d.mu.Unlock()
	if old != nil {
		// Supersede rule: a reconnecting client id replaces its
		// (typically half-open) predecessor instead of being rejected.
		d.supersede(old)
	}
	defer d.dropSession(sess)

	for {
		ft, payload, err := d.readFrame(conn)
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeSubscribe:
			sub, err := wire.UnmarshalSubscribe(payload)
			if err != nil {
				return err
			}
			if err := d.srv.Subscribe(sess.ID, sub.Query); err != nil {
				sess.sendError(err.Error())
			} else if !sess.trackQuery(sub.Query.ID) {
				// Torn down between registration and tracking (a
				// supersede racing a late frame): release immediately.
				d.srv.Unsubscribe(sess.ID, sub.Query.ID)
				return errors.New("daemon: session superseded")
			} else {
				d.markDirty()
				d.record(trace.Event{Kind: trace.KindSubscribe,
					ClientID: sess.ID, QueryID: uint64(sub.Query.ID)})
			}
		case wire.TypeUnsubscribe:
			unsub, err := wire.UnmarshalUnsubscribe(payload)
			if err != nil {
				return err
			}
			if !d.srv.Unsubscribe(sess.ID, unsub.ID) {
				sess.sendError(fmt.Sprintf("no subscription with id %d", unsub.ID))
			} else {
				sess.untrackQuery(unsub.ID)
				d.markDirty()
				d.record(trace.Event{Kind: trace.KindUnsubscribe,
					ClientID: sess.ID, QueryID: uint64(unsub.ID)})
			}
		case wire.TypeRelaySub:
			// The session upgrades into a relay feed: it stops speaking
			// the query protocol and instead receives every answer frame
			// of its channel set for downstream re-fan-out (relay.go).
			rs, err := wire.UnmarshalRelaySub(payload)
			if err != nil {
				return err
			}
			return d.handleRelay(sess, rs)
		case wire.TypeReady:
			// Ready is a synchronization hint: clients send it after
			// their subscriptions so the operator (or test) knows a
			// cycle can run. The daemon itself plans on RunCycle.
		case wire.TypeRefresh:
			// Gap recovery: the client missed messages and wants full
			// answers instead of a delta on the next cycle.
			d.planMu.Lock()
			d.refreshForce = true
			d.planMu.Unlock()
			d.logf("daemon: client %d requested a full refresh", sess.ID)
		case wire.TypeBye:
			return nil
		default:
			return fmt.Errorf("daemon: unexpected frame type %d", ft)
		}
	}
}

// supersede tears down a predecessor session synchronously so its
// replacement starts from a clean registry: cancel its channel
// attachment, close its connection (unblocking any in-flight write),
// join its forwarder and release its queries.
func (d *Daemon) supersede(old *session) {
	d.release(old)
	d.metrics.SessionsSuperseded.Inc()
	d.logf("daemon: client %d superseded by a new connection", old.ID)
}

// dropSession removes a finished session and releases its queries so the
// next cycle stops addressing a gone client. Query ids are tracked on
// the session at Subscribe/Unsubscribe time, so teardown needs no
// throwaway plan and cannot leak subscriptions when planning would fail.
func (d *Daemon) dropSession(sess *session) {
	d.mu.Lock()
	if d.sessions[sess.ID] == sess {
		delete(d.sessions, sess.ID)
	}
	d.metrics.SessionsConnected.Set(int64(len(d.sessions)))
	d.mu.Unlock()
	d.release(sess)
}

// release closes a session and releases its queries and the clients it
// routed as a relay feed.
func (d *Daemon) release(sess *session) {
	ids := sess.takeQueries()
	sess.Close()
	for _, id := range ids {
		d.srv.Unsubscribe(sess.ID, id)
	}
	if len(ids) > 0 {
		d.markDirty()
	}
	d.releaseRelayClients(sess)
}

// record emits one trace event when tracing is enabled.
func (d *Daemon) record(ev trace.Event) {
	if d.Trace != nil {
		d.Trace.Record(ev)
	}
}

// traceSnapshot returns a metrics snapshot for embedding into plan and
// drift trace events, or nil when tracing is off (snapshots are cold
// but not free, so they are taken only when a recorder will see them).
func (d *Daemon) traceSnapshot() *metrics.Snapshot {
	if d.Trace == nil {
		return nil
	}
	return d.metrics.Snapshot()
}

// markDirty forces a re-plan on the next cycle.
func (d *Daemon) markDirty() {
	d.planMu.Lock()
	d.dirty = true
	d.planMu.Unlock()
}

// Replans returns how many times the daemon has re-planned.
func (d *Daemon) Replans() int {
	d.planMu.Lock()
	defer d.planMu.Unlock()
	return d.replans
}

// RunCycle publishes the current merged plan (full answers when delta is
// false, per-period deltas when true). The plan is recomputed — and every
// connected client re-informed of its channel assignment — only when
// subscriptions changed since the last cycle or the drift monitor reports
// that the cached plan's size estimates no longer match reality. In
// delta mode, a pending client refresh request (gap recovery) turns this
// cycle's publish into full answers.
func (d *Daemon) RunCycle(delta bool) (server.Report, error) {
	d.clockOnce.Do(func() {
		if !d.DisableTimestamps {
			// Stamp publishes at seq assignment so every frame carries
			// its publish time for end-to-end latency accounting.
			d.net.SetClock(d.clockNano)
		}
	})
	rec := CycleRecord{
		Cycle:         d.ledger.begin(),
		StartUnixNano: d.clockNano(),
		Mode:          "cached",
		Sharded:       d.srv.ShardingEnabled(),
		Delta:         delta,
	}
	d.planMu.Lock()
	drifted := d.drift.ShouldReplan()
	needPlan := d.cycle == nil || d.dirty || drifted
	// Clear dirty as it is read: a subscription change that lands while
	// this cycle plans, with planMu released, marks the next cycle.
	d.dirty = false
	cy := d.cycle
	forceFull := d.refreshForce
	d.refreshForce = false
	d.planMu.Unlock()

	if needPlan {
		var fresh *server.Cycle
		var err error
		planStart := time.Now()
		incBefore := d.metrics.PlansIncremental.Load()
		budgetBefore := d.metrics.PlanBudgetExhausted.Load()
		if cy != nil && !drifted {
			// Subscription churn with still-valid size estimates: splice
			// the changed queries into the live plan (§11 incremental
			// replan). Only drift — stale estimates — escalates to a
			// full re-solve.
			fresh, err = d.srv.Replan(cy)
		} else {
			fresh, err = d.srv.Plan()
		}
		rec.PlanSeconds = time.Since(planStart).Seconds()
		if d.metrics.PlansIncremental.Load() > incBefore {
			rec.Mode = "incremental"
		} else {
			rec.Mode = "full"
		}
		rec.BudgetExhausted = d.metrics.PlanBudgetExhausted.Load() > budgetBefore
		if err != nil {
			d.markDirty() // the changes this plan was for are still pending
			return server.Report{}, err
		}
		cy = fresh
		d.planMu.Lock()
		d.cycle = fresh
		d.replans++
		d.drift.Reset()
		d.estimate = d.srv.EstimatedTransmitBytes(fresh)
		d.planMu.Unlock()
		sets := 0
		for _, plan := range fresh.ChannelPlans {
			sets += len(plan)
		}
		d.record(trace.Event{Kind: trace.KindPlan,
			Queries: len(fresh.Queries), MergedSets: sets,
			Channels:      d.net.Channels(),
			EstimatedCost: fresh.EstimatedCost, InitialCost: fresh.InitialCost,
			Metrics: d.traceSnapshot()})

		d.mu.Lock()
		sessions := make([]*session, 0, len(d.sessions))
		for _, s := range d.sessions {
			sessions = append(sessions, s)
		}
		d.mu.Unlock()
		// Rebind and assignment run here, on the publishing goroutine,
		// so on every session's ring the Assigned frame sits after the
		// previous cycle's answers and before this cycle's: the client
		// drains its old channel's tail, then switches.
		for _, sess := range sessions {
			ch, ok := cy.ClientChannel[sess.ID]
			if !ok {
				continue // no subscriptions this cycle
			}
			if err := sess.Rebind(d.net, ch); err != nil {
				d.logf("daemon: bind client %d: %v", sess.ID, err)
				continue
			}
			sess.Enqueue(wire.TypeAssigned, wire.MarshalAssigned(wire.Assigned{
				Channel:       ch,
				EstimatedCost: cy.EstimatedCost,
				InitialCost:   cy.InitialCost,
			}))
		}
		// Clients subscribed through a relay have no multicast binding
		// here — the relay's feed carries their frames — but they still
		// need their channel assignment. It travels wrapped on the
		// owning relay session's ring, in the same publish order, so the
		// relay rebinds the client exactly between the old and the new
		// assignment's answer frames.
		for _, rt := range d.relayRoutes() {
			ch, ok := cy.ClientChannel[rt.id]
			if !ok {
				continue
			}
			rt.owner.Enqueue(wire.TypeRelayCtl, wire.MarshalRelayCtl(wire.RelayCtl{
				ClientID: rt.id,
				Inner:    wire.TypeAssigned,
				Payload: wire.MarshalAssigned(wire.Assigned{
					Channel:       ch,
					EstimatedCost: cy.EstimatedCost,
					InitialCost:   cy.InitialCost,
				}),
			}))
		}
	}

	// Gap recovery turns a delta cycle into full answers once, so
	// reconnected or message-lossy clients rebuild complete state.
	rec.Delta = delta && !forceFull
	encBefore := d.encodeNanos.Load()
	pubStart := time.Now()
	var rep server.Report
	var err error
	if rec.Delta {
		rep, err = d.srv.PublishDelta(cy)
	} else {
		rep, err = d.srv.Publish(cy)
	}
	pubSeconds := time.Since(pubStart).Seconds()
	// The encode-once hook runs inside Publish and self-times; the
	// fanout stage is the publish remainder (enqueue + shared-frame
	// handoff), never negative even if the clocks disagree slightly.
	rec.EncodeSeconds = float64(d.encodeNanos.Load()-encBefore) / 1e9
	rec.FanoutSeconds = pubSeconds - rec.EncodeSeconds
	if rec.FanoutSeconds < 0 {
		rec.FanoutSeconds = 0
	}
	if err != nil {
		return rep, err
	}
	rec.Messages, rec.Tuples, rec.PayloadBytes = rep.Messages, rep.Tuples, rep.PayloadBytes

	switch {
	case delta && forceFull:
		d.record(trace.Event{Kind: trace.KindPublish,
			Messages: rep.Messages, Tuples: rep.Tuples, PayloadBytes: rep.PayloadBytes})
	case delta:
		d.record(trace.Event{Kind: trace.KindPublish, Delta: true,
			Messages: rep.Messages, Tuples: rep.Tuples, PayloadBytes: rep.PayloadBytes})
	default:
		// Full publishes feed the drift monitor; delta payloads vary
		// by nature and would trigger spurious re-plans.
		d.planMu.Lock()
		drift := d.drift.Observe(d.estimate, float64(rep.PayloadBytes))
		replan := d.drift.ShouldReplan()
		d.planMu.Unlock()
		d.record(trace.Event{Kind: trace.KindPublish,
			Messages: rep.Messages, Tuples: rep.Tuples, PayloadBytes: rep.PayloadBytes})
		d.record(trace.Event{Kind: trace.KindDrift, Drift: drift, Replan: replan,
			Metrics: d.traceSnapshot()})
	}
	d.finishCycle(rec, d.metrics.FanoutDeliveries.Load())
	d.updateLagWatermarks()
	return rep, nil
}

// Close shuts the daemon down immediately: the multicast network closes
// (ending all forwarders) and every session connection is closed.
func (d *Daemon) Close() { d.shutdown(false) }

// Shutdown shuts the daemon down gracefully: every session's forwarder
// is canceled and joined (draining already-queued answers, bounded by
// the write deadline), each session receives a Bye frame, and only then
// are connections closed. Serve calls it on context cancellation.
func (d *Daemon) Shutdown() { d.shutdown(true) }

func (d *Daemon) shutdown(graceful bool) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	sessions := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.mu.Unlock()
	if graceful {
		for _, s := range sessions {
			s.Stop()                   // forwarder drains queued frames, then exits
			s.Write(wire.TypeBye, nil) // best-effort farewell
		}
	}
	d.net.Close()
	for _, s := range sessions {
		s.Conn().Close()
	}
	d.wg.Wait()
}

// SaveSubscriptions serializes every current (client, query) subscription
// as wire Subscribe frames prefixed by a Hello frame per client, so a
// daemon can restore its registry after a restart. Attribute predicates
// are client-side only and thus not persisted (as on the wire).
func (d *Daemon) SaveSubscriptions(w io.Writer) error {
	cy, err := d.srv.Plan()
	if err != nil {
		return err
	}
	for i, q := range cy.Queries {
		if err := wire.WriteFrame(w, wire.TypeHello,
			wire.MarshalHello(wire.Hello{ClientID: cy.Owners[i]})); err != nil {
			return err
		}
		payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(w, wire.TypeSubscribe, payload); err != nil {
			return err
		}
	}
	return nil
}

// LoadSubscriptions restores a registry written by SaveSubscriptions. It
// returns the number of subscriptions restored. The plan is marked dirty
// whenever anything was restored — including when an error cuts the
// restore short mid-file — so the next cycle never publishes a plan that
// predates the partial restore.
func (d *Daemon) LoadSubscriptions(r io.Reader) (restored int, err error) {
	defer func() {
		if restored > 0 {
			d.markDirty()
		}
	}()
	clientID := 0
	haveClient := false
	for {
		ft, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return restored, nil
		}
		if err != nil {
			return restored, err
		}
		switch ft {
		case wire.TypeHello:
			h, err := wire.UnmarshalHello(payload)
			if err != nil {
				return restored, err
			}
			clientID = h.ClientID
			haveClient = true
		case wire.TypeSubscribe:
			if !haveClient {
				return restored, fmt.Errorf("daemon: subscribe before hello in subscription file")
			}
			sub, err := wire.UnmarshalSubscribe(payload)
			if err != nil {
				return restored, err
			}
			if err := d.srv.Subscribe(clientID, sub.Query); err != nil {
				return restored, err
			}
			restored++
		default:
			return restored, fmt.Errorf("daemon: unexpected frame type %d in subscription file", ft)
		}
	}
}
