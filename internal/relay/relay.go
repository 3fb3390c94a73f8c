// Package relay implements the hierarchical fan-out tier: a daemon-like
// process that subscribes upstream as a privileged feed session
// (TypeRelaySub), receives each channel's shared encode-once answer
// frames exactly once, and re-fans them out verbatim to its own
// downstream sessions. No decode, no re-encode, no re-plan: the bytes a
// client receives through a relay are the bytes the root published,
// sequence numbers included, so netclient gap detection and Refresh
// recovery work unchanged through any number of hops.
//
// Delivery runs on the same fabric as the root (internal/fabric). The
// relay ingests each upstream answer frame by publishing it, still
// encoded, on a local multicast.Network — one per upstream connection,
// sized from the RelayAck — and every downstream connection is one ring
// subscription on that network drained by one forwarder. Slow
// downstream sessions are evicted exactly as at the root.
//
// Control remains end to end. A downstream client speaks the ordinary
// query protocol to the relay; the relay wraps each control frame in
// TypeRelayCtl and forwards it upstream, where the root registers the
// subscription under the client's global id and plans it like any direct
// client's. Channel assignments come back the same way, wrapped on the
// relay's feed in publish order. The upstream read loop is the local
// network's only publisher, and it rebinds a client and queues its
// Assigned frame as it reads them, so the client's ring holds the old
// channel's answers, then the Assigned, then the new channel's.
//
// The upstream link is resilient the way netclient sessions are:
// exponential backoff with equal jitter, and on every reconnect the
// relay replays its clients' registrations (the root released them when
// the old feed session died) and requests one full refresh so downstream
// answer state rebuilds without manual intervention.
package relay

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"qsub/internal/fabric"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// Defaults mirror the daemon's session-hardening parameters.
const (
	DefaultWriteTimeout     = 10 * time.Second
	DefaultSubscriberBuffer = 256
)

// MaxUpstreamChannels bounds the channel count a RelayAck may announce.
// The count sizes the relay's local network, so a value off the wire is
// checked against a constant before anything is allocated.
const MaxUpstreamChannels = 1 << 12

// connReadBuffer sizes the buffered readers on both the upstream feed
// and downstream session connections.
const connReadBuffer = 32 << 10

// Config parameterizes a relay.
type Config struct {
	// Upstream is the address of the daemon (or relay) to feed from.
	Upstream string
	// RelayID identifies the relay's upstream session. It shares the
	// client id space, so deployments give relays ids far from any
	// client's (the supersede rule applies to relays too).
	RelayID int
	// Channels restricts the upstream subscription to these channels;
	// nil subscribes every channel, which is also what lets downstream
	// clients be assigned anywhere.
	Channels []int

	// SubscriberBuffer is the per-downstream-session queue depth, per
	// channel the session listens on (default DefaultSubscriberBuffer).
	// A session whose queue fills is evicted, exactly like a slow
	// consumer on the root daemon.
	SubscriberBuffer int
	// WriteTimeout bounds each downstream flush and upstream control
	// write (default DefaultWriteTimeout).
	WriteTimeout time.Duration

	// MinBackoff/MaxBackoff/MaxAttempts/JitterSeed shape the upstream
	// reconnect loop, with netclient's semantics and defaults.
	MinBackoff  time.Duration
	MaxBackoff  time.Duration
	MaxAttempts int
	JitterSeed  int64

	// Dial opens the upstream connection; nil uses net.Dial("tcp", ...).
	// Tests inject fault-wrapped connections here.
	Dial func(addr string) (net.Conn, error)
	// Metrics receives the relay's instrumentation; nil allocates a
	// private catalog.
	Metrics *metrics.Catalog
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// route is where control frames for one downstream client go: the
// session that owns it, whether the client is directly connected (vs.
// living behind a further downstream relay), and — for direct clients —
// the raw Subscribe payloads to replay after an upstream reconnect.
type route struct {
	sess   *dsession
	direct bool
	subs   map[query.ID][]byte
}

// dsession is one downstream session: a direct client or, once it sent
// RelaySub, a downstream relay feed.
type dsession struct {
	*fabric.Session
	feed bool // guarded by Relay.mu
}

// Relay is a running relay tier process.
type Relay struct {
	cfg     Config
	metrics *metrics.Catalog

	// mu guards the routing table, the upstream connection's state and
	// control writes, the local network and the session set.
	// Registration and forwarding happen under one critical section, so
	// a reconnect replay can neither miss nor double-send a
	// registration.
	mu         sync.Mutex
	routes     map[int]*route
	uconn      net.Conn
	connected  bool
	hop        int
	upChannels int
	connects   int
	// net is the local network of the current upstream connection, nil
	// between connections. Only the upstream read loop publishes on it.
	net      *multicast.Network
	sessions map[*dsession]struct{}
	closed   bool

	wg sync.WaitGroup
}

// New builds a relay; Run starts it.
func New(cfg Config) (*Relay, error) {
	if cfg.Upstream == "" {
		return nil, errors.New("relay: no upstream address configured")
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = DefaultSubscriberBuffer
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewCatalog(0)
	}
	return &Relay{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		routes:   make(map[int]*route),
		sessions: make(map[*dsession]struct{}),
	}, nil
}

// Metrics returns the relay's instrument catalog (never nil).
func (r *Relay) Metrics() *metrics.Catalog { return r.metrics }

func (r *Relay) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Run accepts downstream sessions on ln and maintains the upstream feed
// until ctx ends (returning nil) or MaxAttempts consecutive upstream
// dials fail (returning the last dial error). The listener is closed on
// return.
func (r *Relay) Run(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				if err := r.handle(conn); err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
					r.logf("relay: session error: %v", err)
				}
			}()
		}
	}()

	err := r.runUpstream(ctx)
	r.shutdown()
	ln.Close()
	r.wg.Wait()
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// shutdown disconnects every downstream session; their read loops tear
// them down.
func (r *Relay) shutdown() {
	r.mu.Lock()
	r.closed = true
	sessions := make([]*dsession, 0, len(r.sessions))
	for s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.Conn().Close()
	}
}

// ---- upstream feed ----

// runUpstream drives the connect/feed/backoff loop.
func (r *Relay) runUpstream(ctx context.Context) error {
	seed := r.cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		conn, err := r.connectUpstream()
		if err != nil {
			failures++
			if r.cfg.MaxAttempts > 0 && failures >= r.cfg.MaxAttempts {
				return fmt.Errorf("relay: giving up after %d upstream dial failures: %w", failures, err)
			}
			delay := r.backoff(failures, rng)
			r.logf("relay: upstream %s: %v (retrying in %s)", r.cfg.Upstream, err, delay)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(delay):
			}
			continue
		}
		failures = 0

		// Unblock the feed read when the context ends mid-session.
		watch := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-watch:
			}
		}()
		err = r.serveUpstream(conn)
		close(watch)
		r.detachUpstream(conn)
		if ctx.Err() != nil {
			return nil
		}
		failures = 1
		delay := r.backoff(failures, rng)
		r.logf("relay: upstream feed ended: %v (reconnecting in %s)", err, delay)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
	}
}

// backoff mirrors netclient's: exponential with equal jitter.
func (r *Relay) backoff(n int, rng *rand.Rand) time.Duration {
	d := r.cfg.MinBackoff
	for i := 1; i < n && d < r.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// connectUpstream dials the upstream, performs the relay handshake and
// replays the routing table. On a reconnect the root has already
// released every registration this relay owned (teardown-on-disconnect),
// so the replay starts from a clean registry and cannot collide.
func (r *Relay) connectUpstream() (net.Conn, error) {
	conn, err := r.cfg.Dial(r.cfg.Upstream)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(256 << 10) // best effort, matches the daemon
	}
	if err := wire.WriteFrame(conn, wire.TypeHello,
		wire.MarshalHello(wire.Hello{ClientID: r.cfg.RelayID})); err != nil {
		conn.Close()
		return nil, err
	}
	if err := wire.WriteFrame(conn, wire.TypeRelaySub,
		wire.MarshalRelaySub(wire.RelaySub{Mask: wire.ChannelMask(r.cfg.Channels...)})); err != nil {
		conn.Close()
		return nil, err
	}

	r.mu.Lock()
	r.uconn = conn
	r.connects++
	reconnect := r.connects > 1
	replayed := 0
	for id, rt := range r.routes {
		if !rt.direct {
			continue
		}
		r.forwardCtlLocked(id, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: id}))
		for _, raw := range rt.subs {
			r.forwardCtlLocked(id, wire.TypeSubscribe, raw)
		}
		replayed++
	}
	r.mu.Unlock()

	if reconnect {
		r.metrics.RelayReconnects.Inc()
		// Everything published while disconnected is gone; ask the root
		// for full answers so downstream clients rebuild complete state.
		if err := wire.WriteFrame(conn, wire.TypeRefresh, nil); err != nil {
			conn.Close()
			return nil, err
		}
		r.logf("relay: reconnected upstream %s, replayed %d clients, requested full refresh",
			r.cfg.Upstream, replayed)
	}
	return conn, nil
}

// detachUpstream clears the upstream connection state after a feed ends
// and closes its local network. Direct clients keep their connections
// (their forwarders drain and park until the next network) but
// downstream relay sessions are dropped: the root released their
// clients with ours, and only they hold the registrations to replay, so
// they must reconnect and replay themselves.
func (r *Relay) detachUpstream(conn net.Conn) {
	conn.Close()
	r.mu.Lock()
	if r.uconn == conn {
		r.uconn = nil
		r.connected = false
	}
	mnet := r.net
	r.net = nil
	var feeds []*dsession
	for s := range r.sessions {
		if s.feed {
			feeds = append(feeds, s)
		}
	}
	r.mu.Unlock()
	if mnet != nil {
		mnet.Close()
	}
	for _, s := range feeds {
		s.Conn().Close()
	}
}

// attachLocked gives a downstream session a fresh ring subscription on
// the current network, if there is one. Callers hold r.mu.
func (r *Relay) attachLocked(s *dsession) {
	if r.net == nil {
		return
	}
	sub, err := r.net.SubscribeSet(nil, r.cfg.SubscriberBuffer, multicast.Evict)
	if err != nil {
		r.logf("relay: attach client %d: %v", s.ID, err)
		return
	}
	s.Attach(r.net, sub)
}

// establish validates a RelayAck and builds the connection's local
// network from it, attaching every direct client.
func (r *Relay) establish(ack wire.RelayAck) (*multicast.Network, error) {
	if ack.Channels < 1 || ack.Channels > MaxUpstreamChannels {
		return nil, fmt.Errorf("relay: upstream acked %d channels, want 1..%d", ack.Channels, MaxUpstreamChannels)
	}
	mnet, err := multicast.NewNetwork(ack.Channels)
	if err != nil {
		return nil, err
	}
	m := r.metrics
	mnet.SetMetrics(m.FanoutDeliveries, m.FanoutDropped, m.FanoutEvictions, nil)
	r.mu.Lock()
	r.net = mnet
	r.connected = true
	r.hop = ack.Hop
	r.upChannels = ack.Channels
	for s := range r.sessions {
		r.attachLocked(s)
	}
	r.mu.Unlock()
	m.RelayHop.Set(int64(ack.Hop))
	r.logf("relay: feed established at hop %d (%d upstream channels)", ack.Hop, ack.Channels)
	return mnet, nil
}

// serveUpstream consumes the upstream feed until the connection ends or
// the upstream misbehaves: a second or out-of-bounds RelayAck, an answer
// or control frame before the ack, or an answer on a channel outside it
// ends the feed and the relay reconnects.
func (r *Relay) serveUpstream(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, connReadBuffer)
	var mnet *multicast.Network
	var rbuf []byte
	for {
		ft, payload, err := wire.ReadFrameAppend(rbuf[:0], br)
		rbuf = payload
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeAnswer:
			if mnet == nil {
				return errors.New("relay: answer frame before the relay ack")
			}
			if len(payload) < 4 {
				return errors.New("relay: short answer frame")
			}
			if err := r.ingest(mnet, payload); err != nil {
				return err
			}
		case wire.TypeRelayAck:
			if mnet != nil {
				return errors.New("relay: second relay ack on one feed")
			}
			ack, err := wire.UnmarshalRelayAck(payload)
			if err != nil {
				return err
			}
			if mnet, err = r.establish(ack); err != nil {
				return err
			}
		case wire.TypeRelayCtl:
			if mnet == nil {
				return errors.New("relay: control frame before the relay ack")
			}
			rc, err := wire.UnmarshalRelayCtl(payload)
			if err != nil {
				return err
			}
			r.routeCtl(mnet, rc, payload)
		case wire.TypeError:
			e, err := wire.UnmarshalError(payload)
			if err != nil {
				return err
			}
			r.logf("relay: upstream error: %s", e.Msg)
		case wire.TypeBye:
			return errors.New("relay: upstream said goodbye")
		default:
			return fmt.Errorf("relay: unexpected frame type %d from upstream", ft)
		}
	}
}

// ingest publishes one upstream answer frame on the local network. The
// frame bytes are copied out of the read buffer exactly once and shared
// by every subscriber's ring — the relay never decodes the message, it
// routes on the payload's leading channel field alone, and the frame
// keeps the upstream seq and timestamp verbatim.
func (r *Relay) ingest(mnet *multicast.Network, payload []byte) error {
	channel := int(binary.BigEndian.Uint32(payload[:4]))
	frame := fabric.Frame(wire.TypeAnswer, payload)
	r.metrics.RelayFrames.Inc()
	r.metrics.RelayBytes.Add(uint64(len(frame)))
	return mnet.Publish(multicast.Message{Channel: channel, Frame: frame})
}

// routeCtl dispatches one wrapped control frame from upstream to the
// downstream session that owns the client. For a direct client the
// wrapper is removed (the client speaks the plain protocol); for a
// client behind a further relay the wrapped frame is forwarded verbatim.
// Either way the frame is queued on the session's ring from the
// publishing goroutine, so an Assigned never overtakes — or is
// overtaken by — the answer frames around it.
func (r *Relay) routeCtl(mnet *multicast.Network, rc wire.RelayCtl, raw []byte) {
	r.mu.Lock()
	rt := r.routes[rc.ClientID]
	r.mu.Unlock()
	if rt == nil {
		return // client disconnected while the frame was in flight
	}
	if !rt.direct {
		rt.sess.Enqueue(wire.TypeRelayCtl, raw)
		return
	}
	if rc.Inner == wire.TypeAssigned {
		a, err := wire.UnmarshalAssigned(rc.Payload)
		if err != nil {
			r.logf("relay: bad assigned frame for client %d: %v", rc.ClientID, err)
			return
		}
		if err := rt.sess.Rebind(mnet, a.Channel); err != nil {
			r.logf("relay: bind client %d: %v", rc.ClientID, err)
			return
		}
	}
	rt.sess.Enqueue(rc.Inner, rc.Payload)
}

// forwardCtlLocked wraps one control frame for clientID and writes it
// upstream. Callers hold r.mu; a nil upstream connection silently drops
// the frame — the registration is in the routing table and the next
// reconnect replays it.
func (r *Relay) forwardCtlLocked(clientID int, inner uint8, payload []byte) {
	r.forwardRawLocked(wire.MarshalRelayCtl(wire.RelayCtl{ClientID: clientID, Inner: inner, Payload: payload}))
}

// forwardRawLocked writes an already-wrapped RelayCtl payload upstream
// verbatim (multi-hop forwarding). Callers hold r.mu.
func (r *Relay) forwardRawLocked(payload []byte) {
	if r.uconn == nil {
		return
	}
	if r.cfg.WriteTimeout > 0 {
		r.uconn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	}
	if err := wire.WriteFrame(r.uconn, wire.TypeRelayCtl, payload); err != nil {
		r.logf("relay: upstream ctl write: %v", err)
		r.uconn.Close() // the feed loop notices and reconnects
	}
}

// ---- downstream sessions ----

// handle runs one downstream session: Hello, then either the plain query
// protocol (a client) or RelaySub (a further relay tier).
func (r *Relay) handle(conn net.Conn) error {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(256 << 10) // best effort
	}
	br := bufio.NewReaderSize(conn, connReadBuffer)
	ft, payload, err := wire.ReadFrame(br)
	if err != nil {
		return err
	}
	if ft != wire.TypeHello {
		return fmt.Errorf("relay: expected Hello, got frame type %d", ft)
	}
	hello, err := wire.UnmarshalHello(payload)
	if err != nil {
		return err
	}

	s := &dsession{Session: fabric.New(hello.ClientID, conn, fabric.Options{
		WriteTimeout: r.cfg.WriteTimeout,
		Metrics:      r.metrics,
		Now:          func() int64 { return time.Now().UnixNano() },
		Logf:         r.cfg.Logf,
	})}
	// Register, attach and route the client in one critical section, and
	// announce it upstream. A reconnecting client id supersedes its
	// predecessor, as on the root: the old session is disconnected and
	// its registrations released upstream before the new Hello.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("relay: closed")
	}
	r.sessions[s] = struct{}{}
	r.metrics.SessionsConnected.Set(int64(len(r.sessions)))
	r.attachLocked(s)
	var old *dsession
	if prev := r.routes[hello.ClientID]; prev != nil && prev.direct {
		old = prev.sess
		r.forwardCtlLocked(hello.ClientID, wire.TypeBye, nil)
	}
	rt := &route{sess: s, direct: true, subs: make(map[query.ID][]byte)}
	r.routes[hello.ClientID] = rt
	r.forwardCtlLocked(hello.ClientID, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: hello.ClientID}))
	r.mu.Unlock()
	defer r.dropSession(s)
	if old != nil {
		old.Close()
		r.metrics.SessionsSuperseded.Inc()
		r.logf("relay: client %d superseded by a new connection", hello.ClientID)
	}

	var rbuf []byte
	for {
		ft, payload, err := wire.ReadFrameAppend(rbuf[:0], br)
		rbuf = payload
		if err != nil {
			return err
		}
		switch ft {
		case wire.TypeSubscribe:
			sub, err := wire.UnmarshalSubscribe(payload)
			if err != nil {
				return err
			}
			raw := append([]byte(nil), payload...)
			r.mu.Lock()
			rt.subs[sub.Query.ID] = raw
			r.forwardCtlLocked(s.ID, wire.TypeSubscribe, raw)
			r.mu.Unlock()
		case wire.TypeUnsubscribe:
			unsub, err := wire.UnmarshalUnsubscribe(payload)
			if err != nil {
				return err
			}
			r.mu.Lock()
			delete(rt.subs, unsub.ID)
			r.forwardCtlLocked(s.ID, wire.TypeUnsubscribe, append([]byte(nil), payload...))
			r.mu.Unlock()
		case wire.TypeReady, wire.TypeRefresh:
			r.mu.Lock()
			r.forwardCtlLocked(s.ID, ft, nil)
			r.mu.Unlock()
		case wire.TypeRelaySub:
			rs, err := wire.UnmarshalRelaySub(payload)
			if err != nil {
				return err
			}
			if err := r.upgradeFeed(s, rs); err != nil {
				return err
			}
		case wire.TypeRelayCtl:
			// Multi-hop: a downstream relay forwards its clients' control
			// frames. Track the route (so returning ctl frames find the
			// session) and pass the wrapper upstream verbatim.
			rc, err := wire.UnmarshalRelayCtl(payload)
			if err != nil {
				return err
			}
			raw := append([]byte(nil), payload...)
			r.mu.Lock()
			switch rc.Inner {
			case wire.TypeHello:
				r.routes[rc.ClientID] = &route{sess: s, direct: false}
			case wire.TypeBye:
				if inner := r.routes[rc.ClientID]; inner != nil && inner.sess == s {
					delete(r.routes, rc.ClientID)
				}
			}
			r.forwardRawLocked(raw)
			r.mu.Unlock()
		case wire.TypeBye:
			return nil
		default:
			return fmt.Errorf("relay: unexpected frame type %d", ft)
		}
	}
}

// upgradeFeed turns a downstream session into a relay feed of its own:
// acknowledge one hop further from the root, then replace its ring with
// a subscription on every masked channel (the forwarder drains the ack
// first). Masks are relative to the root's channel space,
// which every tier shares. A feed needs the upstream's channel count, so
// it is refused while the relay itself has no upstream feed; the
// downstream relay retries with backoff.
func (r *Relay) upgradeFeed(s *dsession, rs wire.RelaySub) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.net == nil {
		return errors.New("relay: feed requested while the upstream is down")
	}
	channels := wire.MaskChannels(rs.Mask, r.upChannels)
	if len(channels) == 0 {
		s.Enqueue(wire.TypeError, wire.MarshalError(wire.Error{Msg: "relay subscription selects no channels"}))
		return fmt.Errorf("relay: downstream relay %d subscribed an empty channel set", s.ID)
	}
	if !s.Enqueue(wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: r.hop + 1, Channels: r.upChannels})) {
		return errors.New("relay: session gone")
	}
	sub, err := r.net.SubscribeSet(channels, r.cfg.SubscriberBuffer, multicast.Evict)
	if err != nil {
		return err
	}
	if !s.Attach(r.net, sub) {
		return errors.New("relay: session gone")
	}
	s.feed = true
	r.metrics.RelaySessions.Add(1)
	return nil
}

// dropSession tears one downstream session down: release its routes
// (announcing Bye upstream for every client it carried, so the root
// unsubscribes them) and close it.
func (r *Relay) dropSession(s *dsession) {
	r.mu.Lock()
	delete(r.sessions, s)
	r.metrics.SessionsConnected.Set(int64(len(r.sessions)))
	if s.feed {
		r.metrics.RelaySessions.Add(-1)
	}
	for id, rt := range r.routes {
		if rt.sess != s {
			continue
		}
		delete(r.routes, id)
		r.forwardCtlLocked(id, wire.TypeBye, nil)
	}
	r.mu.Unlock()
	s.Close()
}
