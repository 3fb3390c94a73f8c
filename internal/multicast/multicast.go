// Package multicast simulates the dissemination network of §7: a fixed
// set of logical multicast channels over which the server publishes merged
// answers. Each message carries the header of §3.1 — for every addressed
// client, the query identifiers whose answers the message contains (the
// extractor being the original query itself for selection queries).
//
// Clients subscribe to exactly one channel and receive every message
// published on it, concurrently, each on its own goroutine-friendly Go
// channel. The network keeps exact byte accounting (payload bytes sent,
// delivered, and per-delivery fan-out) so experiments can compare measured
// traffic against the cost model's size(M) and U(Q,M) predictions.
// Optional random loss injection exercises client-side gap detection.
//
// Delivery is crash-proof under concurrent cancellation: every
// subscription carries a send gate (a mutex plus a closed flag) that
// Publish checks before touching the subscriber's channel, so Cancel and
// Close can never race a publish into a send on a closed channel. What
// happens when a subscriber's buffer is full is a per-subscription
// Policy: Block (backpressure, the simulator default), Evict (cancel the
// slow consumer so one stalled client never holds up a publish cycle),
// or DropNewest (skip the message for that subscriber, surfacing as a
// sequence gap).
package multicast

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// HeaderEntry addresses one client within a message: the client must apply
// the extractors of the listed queries to the payload to recover its
// answers. Queries are identified by id; for pure selection queries the
// extractor is the subscription query itself (§3.1), so ids are all the
// header needs to carry.
type HeaderEntry struct {
	ClientID int
	QueryIDs []query.ID
}

// Message is one merged answer published on a channel.
type Message struct {
	// Channel is the logical multicast channel the message travels on.
	Channel int
	// Seq is a per-channel sequence number assigned by the network,
	// letting clients detect lost messages.
	Seq uint64
	// Tuples is the merged answer payload.
	Tuples []relation.Tuple
	// Header lists the addressed clients and their query ids.
	Header []HeaderEntry
	// Delta marks continuous-mode messages that carry only tuples
	// inserted since the previous cycle.
	Delta bool
	// Removed lists tuple ids deleted since the previous cycle that
	// fall inside this merged query's footprint; clients drop them from
	// their accumulated answers (§11 dynamic scenario).
	Removed []uint64
	// PublishedUnixNano is the wall-clock publish timestamp, assigned by
	// the network's clock (see SetClock) together with Seq, so every
	// subscriber — and the encode-once wire frame — carries the same
	// stamp and receivers can measure publish→receive latency. Zero when
	// no clock is installed; the wire encoding omits the field entirely
	// in that case, keeping the frame bytes identical to the pre-stamp
	// format.
	PublishedUnixNano int64
	// Frame is the encode-once wire frame for this message: an opaque,
	// ready-to-write byte slice produced by the network's Encoder (see
	// SetEncoder) exactly once per Publish, after Seq assignment. Every
	// subscriber of the channel receives the same backing array, so the
	// slice is strictly read-only once Publish has run — forwarders,
	// eviction drains and late readers all alias it. A publisher without
	// an encoder may set Frame itself (a relay re-publishing upstream
	// bytes verbatim); Publish then passes it through untouched. Nil in
	// the in-process simulation.
	Frame []byte
}

// ControlChannel is the Channel of a control frame queued with
// Subscription.Enqueue: a ready-to-write Frame addressed to one
// subscriber, carrying no answer, no Seq and no channel of its own.
const ControlChannel = -1

// Control reports whether the message is a control frame queued with
// Subscription.Enqueue rather than a published answer.
func (m *Message) Control() bool { return m.Channel == ControlChannel }

// PayloadBytes returns the transmission size of the tuple payload plus
// 8 bytes per removal notice.
func (m *Message) PayloadBytes() int {
	n := 8 * len(m.Removed)
	for _, t := range m.Tuples {
		n += t.Size()
	}
	return n
}

// HeaderBytes returns the transmission size of the header: 8 bytes per
// client entry plus 8 per query id. The cost model ignores headers
// ("we expect the size of the header to be very small compared to the
// size of the data", §4); the simulator accounts for them anyway so the
// assumption can be checked.
func (m *Message) HeaderBytes() int {
	n := 0
	for _, e := range m.Header {
		n += 8 + 8*len(e.QueryIDs)
	}
	return n
}

// EntryFor returns the header entry addressing the given client, if any.
func (m *Message) EntryFor(clientID int) (HeaderEntry, bool) {
	for _, e := range m.Header {
		if e.ClientID == clientID {
			return e, true
		}
	}
	return HeaderEntry{}, false
}

// Stats aggregates network traffic counters. All fields are totals since
// the network was created.
type Stats struct {
	// MessagesPublished counts Publish calls that succeeded.
	MessagesPublished uint64
	// PayloadBytesSent is the payload volume placed on channels once
	// per message (the size(M) the server pays for).
	PayloadBytesSent uint64
	// HeaderBytesSent is the header volume placed on channels.
	HeaderBytesSent uint64
	// Deliveries counts message copies handed to subscribers.
	Deliveries uint64
	// PayloadBytesDelivered is the payload volume received by
	// subscribers (fan-out multiplied).
	PayloadBytesDelivered uint64
	// Dropped counts deliveries suppressed by loss injection.
	Dropped uint64
	// SlowEvictions counts subscribers evicted because their buffer was
	// full when a publish arrived (Policy Evict).
	SlowEvictions uint64
	// OverflowDrops counts deliveries skipped because the subscriber's
	// buffer was full (Policy DropNewest); they surface to the client as
	// sequence gaps.
	OverflowDrops uint64
}

// Policy selects what Publish does when a subscriber's delivery buffer is
// full.
type Policy int

const (
	// Block applies backpressure: the publish waits until the subscriber
	// drains (or is canceled). One stalled subscriber stalls the cycle,
	// but no data is lost — the in-process simulator default.
	Block Policy = iota
	// Evict cancels the slow subscriber and counts it in
	// Stats.SlowEvictions, so a publish cycle always completes. The
	// daemon's delivery layer uses this by default.
	Evict
	// DropNewest skips this delivery for the full subscriber only,
	// counted in Stats.OverflowDrops; the subscriber observes a sequence
	// gap and can request recovery.
	DropNewest
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Evict:
		return "evict"
	case DropNewest:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the flag spellings back to policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "evict":
		return Evict, nil
	case "drop":
		return DropNewest, nil
	}
	return Block, fmt.Errorf("multicast: unknown slow-consumer policy %q (want block, evict or drop)", s)
}

// Network is a set of logical multicast channels.
type Network struct {
	channels int
	lossRate float64
	policy   Policy // default for Subscribe

	mu     sync.Mutex
	rng    *rand.Rand
	seqs   []uint64
	closed bool
	// subs holds each channel's subscriber list as an immutable
	// snapshot: Subscribe, Cancel and Close install freshly built slices
	// and never mutate one in place, so Publish can deliver from the
	// snapshot it read under mu without copying it per message.
	subs [][]*Subscription
	// members holds every live subscription, including batch
	// subscriptions whose channel set is empty, so Close reaches them.
	members map[*Subscription]struct{}

	messagesPublished     atomic.Uint64
	payloadBytesSent      atomic.Uint64
	headerBytesSent       atomic.Uint64
	deliveries            atomic.Uint64
	payloadBytesDelivered atomic.Uint64
	dropped               atomic.Uint64
	slowEvictions         atomic.Uint64
	overflowDrops         atomic.Uint64

	perChannel []channelCounters

	// Optional nil-safe fan-out instrumentation (see SetMetrics),
	// additive to the built-in atomic counters above.
	mDeliveries *metrics.Counter
	mDropped    *metrics.Counter
	mEvicted    *metrics.Counter
	mEncodes    *metrics.Counter

	// encoder, when set, turns each published message into its immutable
	// wire frame exactly once per Publish (see SetEncoder).
	encoder func(Message) []byte

	// nowNano, when set, stamps each published message's
	// PublishedUnixNano once per Publish/PublishBatch call (see
	// SetClock).
	nowNano func() int64

	// onEvict, when set, observes each slow-consumer eviction after the
	// subscription has been canceled (see SetEvictHandler).
	onEvict func(*Subscription)
}

// channelCounters holds the per-channel slice of the traffic counters.
type channelCounters struct {
	messages atomic.Uint64
	payload  atomic.Uint64
}

// Option configures a Network.
type Option func(*Network)

// WithLoss makes each delivery independently fail with probability rate,
// deterministically for a given seed. Sequence numbers still advance, so
// clients observe gaps.
func WithLoss(rate float64, seed int64) Option {
	return func(n *Network) {
		n.lossRate = rate
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// WithPolicy sets the slow-consumer policy Subscribe attaches to new
// subscriptions (SubscribeWith overrides it per subscription).
func WithPolicy(p Policy) Option {
	return func(n *Network) { n.policy = p }
}

// NewNetwork creates a network with the given number of channels.
func NewNetwork(channels int, opts ...Option) (*Network, error) {
	if channels < 1 {
		return nil, fmt.Errorf("multicast: need at least one channel, got %d", channels)
	}
	n := &Network{
		channels:   channels,
		seqs:       make([]uint64, channels),
		subs:       make([][]*Subscription, channels),
		members:    make(map[*Subscription]struct{}),
		perChannel: make([]channelCounters, channels),
	}
	for _, o := range opts {
		o(n)
	}
	return n, nil
}

// Channels returns the number of logical channels.
func (n *Network) Channels() int { return n.channels }

// SetMetrics attaches fan-out counters to the network: deliveries
// counts message copies handed to subscribers, dropped counts copies
// suppressed by loss injection or the DropNewest policy, evicted counts
// slow-consumer evictions, encodes counts wire encodes performed by the
// encode-once hook (see SetEncoder; the per-session ablation counts its
// own encodes into the same instrument). Any may be nil. Call before
// concurrent publishing.
func (n *Network) SetMetrics(deliveries, dropped, evicted, encodes *metrics.Counter) {
	n.mDeliveries = deliveries
	n.mDropped = dropped
	n.mEvicted = evicted
	n.mEncodes = encodes
}

// SetEncoder installs the encode-once hook: Publish calls enc exactly
// once per message — after sequence assignment, before fan-out — and
// attaches the returned frame to the message every subscriber receives,
// so N subscribers share one encoding instead of re-marshaling N times.
// The returned slice must be freshly allocated per call (subscribers may
// alias it indefinitely) and is treated as immutable from that point on.
// enc must be safe for concurrent calls; publishes on channels with no
// subscribers skip encoding entirely. Call before concurrent publishing;
// nil uninstalls the hook.
func (n *Network) SetEncoder(enc func(Message) []byte) { n.encoder = enc }

// SetClock installs the publish timestamp source: each Publish or
// PublishBatch call reads it once — after sequence assignment, before
// encoding — and stamps the result into every message of the call, so
// the encode-once frame carries the timestamp for free. nil (the
// default) disables stamping, leaving PublishedUnixNano zero and the
// wire encoding byte-identical to the timestamp-free format. Tests
// inject a fixed clock to keep published streams deterministic. Call
// before concurrent publishing.
func (n *Network) SetClock(nowNano func() int64) { n.nowNano = nowNano }

// CurrentSeq returns the last sequence number assigned on the channel
// (0 before any publish), letting delivery layers compute how far a
// session has fallen behind the channel head.
func (n *Network) CurrentSeq(channel int) uint64 {
	if channel < 0 || channel >= n.channels {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seqs[channel]
}

// SetEvictHandler registers a callback observing slow-consumer
// evictions. It is called from inside Publish, once per evicted
// subscription, after the subscription has been canceled. Call before
// concurrent publishing.
func (n *Network) SetEvictHandler(h func(*Subscription)) { n.onEvict = h }

// sendResult is the outcome of one delivery attempt.
type sendResult int

const (
	sendOK   sendResult = iota // delivered
	sendFull                   // buffer full, subscription still live
	sendGone                   // subscription canceled
)

// Subscription is one client's attachment to a channel. Messages arrive
// on C; Cancel detaches and closes C. Subscriptions created with
// SubscribeBatch or SubscribeSet have no C: their messages arrive in
// batches through NextBatch, which replaces the per-delivery channel
// send with a mutex-guarded ring append — the high-fan-out delivery
// path. A batch subscription listens on a channel set that Rebind can
// re-point in place, and Enqueue slots per-subscriber control frames
// into the same ring.
type Subscription struct {
	// C delivers the channel's messages in publish order. Nil for batch
	// subscriptions (see SubscribeBatch / NextBatch).
	C <-chan Message

	net    *Network
	policy Policy
	// channels is the channel set the subscription listens on, and
	// detached is set once Cancel (or Close) removed it from the
	// network; both are guarded by net.mu.
	channels []int
	detached bool
	ch       chan Message
	// ring replaces ch as the delivery queue for batch subscriptions.
	ring *msgRing
	// done closes when Cancel runs, releasing publishers blocked in a
	// backpressure send before ch itself is closed.
	done chan struct{}
	once sync.Once

	// mu and closed form the send gate: every send on ch happens either
	// under mu with closed false, or registered in inflight while closed
	// was false. Cancel flips closed under mu, wakes blocked senders via
	// done, waits out inflight, and only then closes ch — so a send on a
	// closed channel is impossible by construction. (Batch subscriptions
	// gate through the ring's own mutex instead.)
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	evicted atomic.Bool
}

// msgRing is the delivery queue of a batch subscription: a bounded
// double-buffered slice queue. Producers append one message at a time
// under mu; the single consumer swaps the whole queue out per NextBatch
// call, so steady state moves messages without per-delivery channel
// operations, allocations or copying: entries point at one shared copy
// of each published message, so a delivery appends a pointer, not the
// message. The wake and space channels carry
// at most one token each: wake parks the consumer when the queue is
// empty, space parks Block-policy publishers when it is full.
//
// The queue arrays start empty and grow to the deepest backlog the
// subscriber actually sees, not to its capacity, so thousands of mostly
// idle subscriptions stay cheap.
//
// Control frames (see Subscription.Enqueue) share the queue but not its
// capacity: cap bounds the queued answers, len(buf) - ctl, so a control
// frame can never fill the ring or evict its subscriber.
type msgRing struct {
	mu     sync.Mutex
	buf    []*Message
	spare  []*Message // previous batch, reused on the next swap
	cap    int        // answer capacity: per-channel buffer × channels
	buffer int        // per-channel buffer cap is derived from
	ctl    int        // control frames queued in buf
	closed bool
	wake   chan struct{}
	space  chan struct{}
}

// full reports whether the ring holds its answer capacity. Callers hold
// mu.
func (r *msgRing) full() bool { return len(r.buf)-r.ctl >= r.cap }

// push appends one message under the ring's send gate. The wake token is
// only sent on the empty→non-empty transition: a consumer parks only
// after observing an empty queue under mu, so whichever producer makes
// it non-empty again is guaranteed to leave a token behind.
func (r *msgRing) push(msg *Message) sendResult {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return sendGone
	}
	if msg.Control() {
		r.ctl++
	} else if r.full() {
		r.mu.Unlock()
		return sendFull
	}
	r.buf = append(r.buf, msg)
	first := len(r.buf) == 1
	r.mu.Unlock()
	if first {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return sendOK
}

// close marks the ring finished and wakes a parked consumer so it can
// observe the closed state. Buffered messages stay readable.
func (r *msgRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Channel returns the channel index the subscription listens on: the
// first of its set, or -1 when the set is empty.
func (s *Subscription) Channel() int {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	if len(s.channels) == 0 {
		return -1
	}
	return s.channels[0]
}

// Channels returns a copy of the channel set the subscription listens
// on.
func (s *Subscription) Channels() []int {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	return append([]int(nil), s.channels...)
}

// Rebind re-points the subscription at a new channel set in place:
// messages already queued stay queued and are consumed first, and every
// message published on the new set after Rebind returns is delivered.
// A batch subscription's answer capacity follows the set, at the
// subscribe-time buffer per channel. Rebinding a canceled subscription
// is a no-op.
//
// Ring order equals publish order only if Rebind runs on the goroutine
// that publishes: a publish running concurrently on another goroutine
// may or may not reach the subscription on the channels that changed.
func (s *Subscription) Rebind(channels ...int) error {
	n := s.net
	set, err := n.channelSet(channels)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if s.detached {
		return nil
	}
	for _, c := range s.channels {
		if !slices.Contains(set, c) {
			n.subs[c] = without(n.subs[c], s)
		}
	}
	for _, c := range set {
		if !slices.Contains(s.channels, c) {
			n.subs[c] = with(n.subs[c], s)
		}
	}
	s.channels = set
	if r := s.ring; r != nil {
		r.mu.Lock()
		r.cap = r.buffer * max(1, len(set))
		r.mu.Unlock()
	}
	return nil
}

// Enqueue queues a ready-to-write control frame on a batch
// subscription, behind every message already queued and ahead of every
// later one: NextBatch returns it as a Message whose Control method
// reports true. Control frames take no answer capacity, so under Block
// an Enqueue never waits and under Evict it never evicts. It reports
// false when the subscription has ended. Like Rebind, it orders the
// frame against published answers only when called on the publishing
// goroutine.
func (s *Subscription) Enqueue(frame []byte) bool {
	return s.ring.push(&Message{Channel: ControlChannel, Frame: frame}) == sendOK
}

// Depth returns the number of messages currently queued and not yet
// consumed — the ring length for batch subscriptions, the channel
// backlog otherwise. It is a racy instantaneous read meant for lag
// gauges, not for flow control.
func (s *Subscription) Depth() int {
	if s == nil {
		return 0
	}
	if s.ring != nil {
		s.ring.mu.Lock()
		d := len(s.ring.buf) - s.ring.ctl
		s.ring.mu.Unlock()
		return d
	}
	return len(s.ch)
}

// Evicted reports whether the subscription was canceled by the Evict
// slow-consumer policy (as opposed to an explicit Cancel or network
// Close). Consumers see the eviction as their range loop over C ending;
// Evicted tells them why.
func (s *Subscription) Evicted() bool { return s.evicted.Load() }

// Cancel detaches the subscription and closes its message channel.
// Messages already buffered remain readable. Cancel is idempotent and
// safe to call concurrently with Publish from any goroutine.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.net.detach(s)
		if s.ring != nil {
			s.ring.close()
			close(s.done) // release publishers blocked waiting for space
			return
		}
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)     // release publishers blocked in backpressure
		s.inflight.Wait() // no sender is touching ch anymore
		close(s.ch)
	})
}

// NextBatch returns the next batch of messages delivered to a batch
// subscription (see SubscribeBatch), blocking until at least one message
// is queued or the subscription ends. It swaps the whole delivery queue
// out in one mutex-guarded exchange, so a deep queue costs one wakeup
// regardless of depth. The returned slice is owned by the subscription
// and valid only until the next NextBatch call; the messages it points
// to are shared with every other subscriber and must not be modified.
// When ok is false the subscription is finished (Cancel, eviction or
// network Close) and the returned slice holds its final messages,
// possibly none. NextBatch
// must only be called from a single consumer goroutine; it panics on
// channel-mode subscriptions.
func (s *Subscription) NextBatch() (batch []*Message, ok bool) {
	r := s.ring
	for {
		r.mu.Lock()
		if len(r.buf) > 0 {
			out := r.buf
			r.buf = r.spare[:0]
			r.spare = out
			r.ctl = 0
			closed := r.closed
			r.mu.Unlock()
			// The queue just went empty: hand the space token to at most
			// one publisher parked in a backpressure wait.
			select {
			case r.space <- struct{}{}:
			default:
			}
			return out, !closed
		}
		if r.closed {
			r.mu.Unlock()
			return nil, false
		}
		r.mu.Unlock()
		<-r.wake
	}
}

// trySend attempts a non-blocking delivery under the send gate. Channel
// subscriptions receive msg; batch subscriptions queue shared, the
// publish's one heap copy of it.
func (s *Subscription) trySend(msg Message, shared *Message) sendResult {
	if s.ring != nil {
		return s.ring.push(shared)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return sendGone
	}
	select {
	case s.ch <- msg:
		s.mu.Unlock()
		return sendOK
	default:
	}
	s.mu.Unlock()
	return sendFull
}

// blockingSend waits for buffer space (backpressure); cancellation
// releases it. For channel subscriptions the send itself happens outside
// mu but is covered by inflight, which Cancel drains before closing ch.
// For batch subscriptions it loops on the ring's space token — the
// consumer releases one token per drain — re-attempting the gated push
// each time, so the send-on-closed guarantee holds without a WaitGroup.
func (s *Subscription) blockingSend(msg Message, shared *Message) sendResult {
	if s.ring != nil {
		for {
			select {
			case <-s.ring.space:
			case <-s.done:
				return sendGone
			}
			if res := s.ring.push(shared); res != sendFull {
				return res
			}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return sendGone
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	select {
	case s.ch <- msg:
		return sendOK
	case <-s.done:
		return sendGone
	}
}

// detach removes the subscription from its channels' subscriber lists.
func (n *Network) detach(s *Subscription) {
	n.mu.Lock()
	for _, c := range s.channels {
		n.subs[c] = without(n.subs[c], s)
	}
	s.detached = true
	delete(n.members, s)
	n.mu.Unlock()
}

// with returns a fresh subscriber list with s appended. Lists are
// immutable snapshots (see Network.subs), so it never appends in place.
func with(subs []*Subscription, s *Subscription) []*Subscription {
	next := make([]*Subscription, 0, len(subs)+1)
	next = append(next, subs...)
	return append(next, s)
}

// without returns a fresh subscriber list with s removed, or subs itself
// when s is not on it.
func without(subs []*Subscription, s *Subscription) []*Subscription {
	for i, sub := range subs {
		if sub == s {
			next := make([]*Subscription, 0, len(subs)-1)
			next = append(next, subs[:i]...)
			return append(next, subs[i+1:]...)
		}
	}
	return subs
}

// channelSet validates a channel list and returns it sorted and
// deduplicated.
func (n *Network) channelSet(channels []int) ([]int, error) {
	set := make([]int, 0, len(channels))
	for _, c := range channels {
		if c < 0 || c >= n.channels {
			return nil, fmt.Errorf("multicast: channel %d outside [0,%d)", c, n.channels)
		}
		set = append(set, c)
	}
	slices.Sort(set)
	return slices.Compact(set), nil
}

// Subscribe attaches a listener to the channel with the given delivery
// buffer and the network's default slow-consumer policy (Block unless
// WithPolicy configured otherwise).
func (n *Network) Subscribe(channel, buffer int) (*Subscription, error) {
	return n.SubscribeWith(channel, buffer, n.policy)
}

// SubscribeWith attaches a listener with an explicit slow-consumer
// policy. Under Block, Publish waits when the subscriber's buffer is
// full; under Evict or DropNewest, Publish never blocks on this
// subscriber.
func (n *Network) SubscribeWith(channel, buffer int, policy Policy) (*Subscription, error) {
	if channel < 0 || channel >= n.channels {
		return nil, fmt.Errorf("multicast: channel %d outside [0,%d)", channel, n.channels)
	}
	if buffer < 0 {
		buffer = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("multicast: network closed")
	}
	ch := make(chan Message, buffer)
	sub := &Subscription{
		C:        ch,
		net:      n,
		channels: []int{channel},
		policy:   policy,
		ch:       ch,
		done:     make(chan struct{}),
	}
	n.subs[channel] = with(n.subs[channel], sub)
	n.members[sub] = struct{}{}
	return sub, nil
}

// SubscribeBatch attaches a batch-mode listener: messages are consumed
// through NextBatch instead of C (which is nil), and each delivery is a
// mutex-guarded ring append rather than a channel send. This is the
// high-fan-out path the daemon's shared-frame forwarders use — with
// thousands of subscribers per publish, the ring cuts the per-delivery
// cost to a fraction of a channel operation and lets the consumer drain
// arbitrarily deep queues in one swap. Policies, eviction, loss
// injection and the crash-proof cancellation guarantees behave exactly
// as with SubscribeWith. buffer is clamped to at least 1 (a batch
// subscription has no rendezvous mode).
func (n *Network) SubscribeBatch(channel, buffer int, policy Policy) (*Subscription, error) {
	return n.SubscribeSet([]int{channel}, buffer, policy)
}

// SubscribeSet attaches a batch-mode listener (see SubscribeBatch) to
// every channel of a set, possibly empty. Its ring holds buffer answers
// per channel — a relay feed on k channels keeps the headroom of k
// single-channel subscriptions — and Rebind can re-point the set later.
func (n *Network) SubscribeSet(channels []int, buffer int, policy Policy) (*Subscription, error) {
	set, err := n.channelSet(channels)
	if err != nil {
		return nil, err
	}
	if buffer < 1 {
		buffer = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("multicast: network closed")
	}
	capacity := buffer * max(1, len(set))
	sub := &Subscription{
		net:      n,
		channels: set,
		policy:   policy,
		ring: &msgRing{
			cap:    capacity,
			buffer: buffer,
			wake:   make(chan struct{}, 1),
			space:  make(chan struct{}, 1),
		},
		done: make(chan struct{}),
	}
	for _, c := range set {
		n.subs[c] = with(n.subs[c], sub)
	}
	n.members[sub] = struct{}{}
	return sub, nil
}

// Publish places the message on its channel: one payload charge on the
// wire, one delivery per current subscriber. The message's Seq field is
// assigned by the network. Publish blocks only on Block-policy
// subscribers with full buffers; Evict and DropNewest subscribers can
// never stall a publish cycle.
func (n *Network) Publish(msg Message) error {
	if msg.Channel < 0 || msg.Channel >= n.channels {
		return fmt.Errorf("multicast: channel %d outside [0,%d)", msg.Channel, n.channels)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("multicast: network closed")
	}
	n.seqs[msg.Channel]++
	msg.Seq = n.seqs[msg.Channel]
	// Subscriber lists are immutable snapshots (see the subs field), so
	// the steady-state publish path delivers without copying the list.
	targets := n.subs[msg.Channel]
	var drop []bool
	if n.lossRate > 0 {
		drop = make([]bool, len(targets))
		for i := range targets {
			drop[i] = n.rng.Float64() < n.lossRate
		}
	}
	n.mu.Unlock()

	if n.nowNano != nil {
		msg.PublishedUnixNano = n.nowNano()
	}
	if n.encoder != nil && len(targets) > 0 {
		// Encode once per publish: every subscriber below receives this
		// same immutable frame. Encoding happens after seq assignment
		// and timestamping (the frame carries both) and outside the
		// network lock.
		msg.Frame = n.encoder(msg)
		n.mEncodes.Inc()
	}

	payload := uint64(msg.PayloadBytes())
	n.messagesPublished.Add(1)
	n.payloadBytesSent.Add(payload)
	n.headerBytesSent.Add(uint64(msg.HeaderBytes()))
	n.perChannel[msg.Channel].messages.Add(1)
	n.perChannel[msg.Channel].payload.Add(payload)
	var delivered, droppedCount uint64
	var evicted []*Subscription
	var shared *Message // heap copy for batch subscribers, made on first use
	for i, sub := range targets {
		if drop != nil && drop[i] {
			n.dropped.Add(1)
			droppedCount++
			continue
		}
		if sub.ring != nil && shared == nil {
			shared = heapCopy(msg)
		}
		res := sub.trySend(msg, shared)
		if res == sendFull {
			switch sub.policy {
			case Block:
				res = sub.blockingSend(msg, shared)
			case DropNewest:
				n.overflowDrops.Add(1)
				droppedCount++
				continue
			case Evict:
				evicted = append(evicted, sub)
				continue
			}
		}
		if res != sendOK {
			continue // canceled between snapshot and delivery
		}
		n.deliveries.Add(1)
		n.payloadBytesDelivered.Add(payload)
		delivered++
	}
	n.evictAll(evicted)
	if delivered > 0 {
		n.mDeliveries.Add(delivered)
	}
	if droppedCount > 0 {
		n.mDropped.Add(droppedCount)
	}
	return nil
}

// PublishBatch publishes a run of messages that all travel on the same
// channel. It is observably equivalent to calling Publish on each
// message in order, but amortizes the per-subscriber synchronization
// across the run: sequence numbers are assigned under one network lock,
// and each batch-mode subscriber's ring is locked once per stretch of
// available space instead of once per message. With thousands of
// subscribers and a hundred-odd messages per channel per cycle, the
// per-delivery mutex round-trip is the dominant publish-side cost this
// removes. Channel-mode subscribers receive the run as ordinary
// per-message sends.
func (n *Network) PublishBatch(msgs []Message) error {
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return n.Publish(msgs[0])
	}
	ch := msgs[0].Channel
	if ch < 0 || ch >= n.channels {
		return fmt.Errorf("multicast: channel %d outside [0,%d)", ch, n.channels)
	}
	for i := range msgs {
		if msgs[i].Channel != ch {
			return fmt.Errorf("multicast: PublishBatch run spans channels %d and %d", ch, msgs[i].Channel)
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("multicast: network closed")
	}
	for i := range msgs {
		n.seqs[ch]++
		msgs[i].Seq = n.seqs[ch]
	}
	targets := n.subs[ch]
	// drop is the loss matrix, one contiguous row per target.
	var drop []bool
	if n.lossRate > 0 && len(targets) > 0 {
		drop = make([]bool, len(targets)*len(msgs))
		for i := range drop {
			drop[i] = n.rng.Float64() < n.lossRate
		}
	}
	n.mu.Unlock()

	payloads := make([]uint64, len(msgs))
	var sentPayload, sentHeader uint64
	for i := range msgs {
		p := uint64(msgs[i].PayloadBytes())
		payloads[i] = p
		sentPayload += p
		sentHeader += uint64(msgs[i].HeaderBytes())
	}
	if n.nowNano != nil {
		// One clock read stamps the whole run: the batch shares a
		// publish instant, which is what latency accounting compares
		// against.
		now := n.nowNano()
		for i := range msgs {
			msgs[i].PublishedUnixNano = now
		}
	}
	if n.encoder != nil && len(targets) > 0 {
		for i := range msgs {
			msgs[i].Frame = n.encoder(msgs[i])
		}
		n.mEncodes.Add(uint64(len(msgs)))
	}
	n.messagesPublished.Add(uint64(len(msgs)))
	n.payloadBytesSent.Add(sentPayload)
	n.headerBytesSent.Add(sentHeader)
	n.perChannel[ch].messages.Add(uint64(len(msgs)))
	n.perChannel[ch].payload.Add(sentPayload)

	var delivered, deliveredBytes, lossDrops, overflow uint64
	var evicted []*Subscription
	var shared []Message // heap copy of the run for batch subscribers, made on first use
	for ti, sub := range targets {
		var dropRow []bool
		if drop != nil {
			dropRow = drop[ti*len(msgs) : (ti+1)*len(msgs)]
		}
		if sub.ring == nil {
			// Channel-mode subscriber: per-message sends, as in Publish. A
			// canceled or evicted subscriber ends its run early — the
			// remaining messages could not land anyway.
			for i := range msgs {
				if dropRow != nil && dropRow[i] {
					lossDrops++
					continue
				}
				res := sub.trySend(msgs[i], nil)
				if res == sendFull {
					switch sub.policy {
					case Block:
						res = sub.blockingSend(msgs[i], nil)
					case DropNewest:
						overflow++
						continue
					case Evict:
						evicted = append(evicted, sub)
						res = sendGone
					}
				}
				if res != sendOK {
					break
				}
				delivered++
				deliveredBytes += payloads[i]
			}
			continue
		}
		// Batch-mode subscriber: append the whole run under as few ring
		// lock acquisitions as buffer space allows. Every ring shares one
		// heap copy of the run.
		if shared == nil {
			shared = append([]Message(nil), msgs...)
		}
		r := sub.ring
		i := 0
	run:
		for i < len(msgs) {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				break
			}
			wasEmpty := len(r.buf) == 0
			for i < len(msgs) {
				if dropRow != nil && dropRow[i] {
					lossDrops++ // loss drops need no buffer space
					i++
					continue
				}
				if r.full() {
					break
				}
				r.buf = append(r.buf, &shared[i])
				delivered++
				deliveredBytes += payloads[i]
				i++
			}
			nonEmpty := len(r.buf) > 0
			r.mu.Unlock()
			if wasEmpty && nonEmpty {
				select {
				case r.wake <- struct{}{}:
				default:
				}
			}
			if i >= len(msgs) {
				break
			}
			// Ring full mid-run: apply the slow-consumer policy, then
			// re-acquire and continue the run.
			switch sub.policy {
			case Block:
				select {
				case <-r.space:
				case <-sub.done:
					break run // canceled while waiting
				}
			case DropNewest:
				overflow++
				i++ // this message is dropped; later ones re-attempt
			case Evict:
				evicted = append(evicted, sub)
				break run
			}
		}
	}
	n.deliveries.Add(delivered)
	n.payloadBytesDelivered.Add(deliveredBytes)
	n.dropped.Add(lossDrops)
	n.overflowDrops.Add(overflow)
	n.evictAll(evicted)
	if delivered > 0 {
		n.mDeliveries.Add(delivered)
	}
	if dc := lossDrops + overflow; dc > 0 {
		n.mDropped.Add(dc)
	}
	return nil
}

// heapCopy returns a copy of msg on the heap, for batch subscribers to
// share.
func heapCopy(msg Message) *Message { return &msg }

// evictAll cancels subscribers whose buffers were full under the Evict
// policy, counting and reporting each eviction.
func (n *Network) evictAll(evicted []*Subscription) {
	for _, sub := range evicted {
		sub.evicted.Store(true) // before Cancel: consumers see why C closed
		sub.Cancel()
		n.slowEvictions.Add(1)
		n.mEvicted.Inc()
		if n.onEvict != nil {
			n.onEvict(sub)
		}
	}
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesPublished:     n.messagesPublished.Load(),
		PayloadBytesSent:      n.payloadBytesSent.Load(),
		HeaderBytesSent:       n.headerBytesSent.Load(),
		Deliveries:            n.deliveries.Load(),
		PayloadBytesDelivered: n.payloadBytesDelivered.Load(),
		Dropped:               n.dropped.Load(),
		SlowEvictions:         n.slowEvictions.Load(),
		OverflowDrops:         n.overflowDrops.Load(),
	}
}

// ChannelStats returns the per-channel published message and payload
// counts, indexed by channel — the load-balance view the §8 allocator is
// trying to shape.
func (n *Network) ChannelStats() []struct{ Messages, PayloadBytes uint64 } {
	out := make([]struct{ Messages, PayloadBytes uint64 }, n.channels)
	for i := range out {
		out[i].Messages = n.perChannel[i].messages.Load()
		out[i].PayloadBytes = n.perChannel[i].payload.Load()
	}
	return out
}

// Close cancels every subscription and rejects further publishes.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	all := make([]*Subscription, 0, len(n.members))
	for sub := range n.members {
		all = append(all, sub)
	}
	n.mu.Unlock()
	for _, sub := range all {
		sub.Cancel()
	}
}
