// Package multicast simulates the dissemination network of §7: a fixed
// set of logical multicast channels over which the server publishes merged
// answers. Each message carries the header of §3.1 — for every addressed
// client, the query identifiers whose answers the message contains (the
// extractor being the original query itself for selection queries).
//
// Clients subscribe to a channel (or a set of channels) and receive
// every message published on it, concurrently, each from its own
// delivery ring. The network keeps exact byte accounting (payload bytes
// sent, delivered, and per-delivery fan-out) so experiments can compare
// measured traffic against the cost model's size(M) and U(Q,M)
// predictions. Optional random loss injection exercises client-side gap
// detection.
//
// Delivery is crash-proof under concurrent cancellation: every
// subscription's ring carries a send gate (a mutex plus a closed flag)
// that Publish checks before appending, so Cancel and Close can never
// race a publish into a finished queue. What happens when a
// subscriber's ring is full is a per-subscription Policy: Block
// (backpressure, the simulator default), Evict (cancel the slow consumer
// so one stalled client never holds up a publish cycle), or DropNewest
// (skip the message for that subscriber, surfacing as a sequence gap).
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

// Subscription is one client's attachment to a channel set. Every
// subscription queues its deliveries on one ring (see msgRing): a
// delivery is a mutex-guarded pointer append, not a channel send. The
// consumer takes messages one at a time with Next or swaps the whole
// queue out with NextBatch, the path the high-fan-out forwarders use.
// Rebind re-points the channel set in place, and Enqueue slots
// per-subscriber control frames into the same ring.
type Subscription struct {
	net    *Network
	policy Policy
	// channels is the channel set the subscription listens on, and
	// detached is set once Cancel (or Close) removed it from the
	// network; both are guarded by net.mu.
	channels []int
	detached bool
	ring     msgRing
	// done closes when Cancel runs, releasing publishers blocked waiting
	// for ring space.
	done chan struct{}
	once sync.Once

	evicted atomic.Bool
}

// msgRing is a subscription's delivery queue: a bounded double-buffered
// slice queue. Producers append under mu; the single consumer pops one
// message per Next call or swaps the whole queue out per NextBatch call,
// so steady state moves messages without per-delivery channel
// operations, allocations or copying: entries point at one shared copy
// of each published message, so a delivery appends a pointer, not the
// message. The wake and space channels carry at most one token each:
// wake parks the consumer when the queue is empty, space parks
// Block-policy publishers when it is full. A producer signals wake only
// when it takes the queue from empty to non-empty: the consumer parks
// only after observing an empty queue under mu, so that producer is
// guaranteed to leave it a token.
//
// mu and closed are the send gate: every delivery appends under mu
// after checking closed, and Cancel sets closed under mu, so nothing
// lands after a Cancel and no publisher waits on a canceled
// subscription.
//
// The queue arrays start empty and grow with the deepest backlog the
// subscriber actually sees (to at most twice it under Next), not to its
// capacity, so thousands of mostly idle subscriptions stay cheap.
//
// Control frames (see Subscription.Enqueue) share the queue but not its
// capacity: cap bounds the queued answers, so a control frame can never
// fill the ring or evict its subscriber.
type msgRing struct {
	mu sync.Mutex
	// buf[head:] is the queue; head counts the messages Next popped
	// since buf was last compacted. The queue is empty exactly when buf
	// is: the pop that empties it compacts.
	buf    []*Message
	head   int
	spare  []*Message // previous batch, reused on the next swap
	cap    int        // answer capacity: per-channel buffer × channels
	buffer int        // per-channel buffer cap is derived from
	ctl    int        // control frames queued
	closed bool
	wake   chan struct{}
	space  chan struct{}
}

// answers returns the number of queued answers, control frames
// excluded. Callers hold mu.
func (r *msgRing) answers() int { return len(r.buf) - r.head - r.ctl }

// close marks the ring finished and wakes a parked consumer so it can
// observe the closed state. Queued messages stay readable.
func (r *msgRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	signal(r.wake)
}

// signal leaves a token on c unless one is already waiting there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
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
// The answer capacity follows the set, at the subscribe-time buffer per
// channel. Rebinding a canceled subscription is a no-op.
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
	r := &s.ring
	r.mu.Lock()
	r.cap = r.buffer * max(1, len(set))
	r.mu.Unlock()
	return nil
}

// Enqueue queues a ready-to-write control frame behind every message
// already queued and ahead of every later one: Next and NextBatch return
// it as a Message whose Control method reports true. Control frames take
// no answer capacity, so under Block an Enqueue never waits and under
// Evict it never evicts. It reports false when the subscription has
// ended. Like Rebind, it orders the frame against published answers
// only when called on the publishing goroutine.
func (s *Subscription) Enqueue(frame []byte) bool {
	msg := &Message{Channel: ControlChannel, Frame: frame}
	r := &s.ring
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.ctl++
	r.buf = append(r.buf, msg)
	first := len(r.buf) == 1
	r.mu.Unlock()
	if first {
		signal(r.wake)
	}
	return true
}

// Depth returns the number of answers currently queued and not yet
// consumed. It is a racy instantaneous read meant for lag gauges, not
// for flow control.
func (s *Subscription) Depth() int {
	if s == nil {
		return 0
	}
	s.ring.mu.Lock()
	d := s.ring.answers()
	s.ring.mu.Unlock()
	return d
}

// Evicted reports whether the subscription was canceled by the Evict
// slow-consumer policy (as opposed to an explicit Cancel or network
// Close). Consumers see the eviction as Next or NextBatch reporting the
// end; Evicted tells them why.
func (s *Subscription) Evicted() bool { return s.evicted.Load() }

// Cancel detaches the subscription and closes its ring. Messages already
// queued remain readable. Cancel is idempotent and safe to call
// concurrently with Publish from any goroutine.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.net.detach(s)
		s.ring.close()
		close(s.done) // release publishers blocked waiting for space
	})
}

// Next returns the next message delivered to the subscription, blocking
// until one is queued or the subscription ends. It pops exactly one
// message and hands one space token to a publisher parked in a Block
// wait, as a receive on a buffered channel of the ring's capacity would,
// so Depth and the slow-consumer policies count what such a channel
// counted. After Cancel, eviction or network Close it returns the queued
// messages, then ok false. Next must only be called from a single
// consumer goroutine.
func (s *Subscription) Next() (msg Message, ok bool) {
	r := &s.ring
	for {
		r.mu.Lock()
		if len(r.buf) > 0 {
			m := r.buf[r.head]
			if r.head++; 2*r.head >= len(r.buf) {
				// At least half of buf is popped: slide the queue to the
				// front, so buf stays within twice the backlog at
				// amortized constant cost per pop.
				n := copy(r.buf, r.buf[r.head:])
				clear(r.buf[n:])
				r.buf, r.head = r.buf[:n], 0
			}
			if m.Control() {
				r.ctl--
			}
			r.mu.Unlock()
			signal(r.space)
			return *m, true
		}
		if r.closed {
			r.mu.Unlock()
			return Message{}, false
		}
		r.mu.Unlock()
		<-r.wake
	}
}

// NextBatch returns every message queued on the subscription, blocking
// until at least one is queued or the subscription ends. It swaps the
// whole delivery queue out in one mutex-guarded exchange, so a deep
// queue costs one wakeup regardless of depth. The returned slice is
// owned by the subscription and valid only until the next NextBatch
// call; the messages it points to are shared with every other
// subscriber and must not be modified. When ok is false the
// subscription is finished (Cancel, eviction or network Close) and the
// returned slice holds its final messages, possibly none. NextBatch must
// only be called from a single consumer goroutine.
func (s *Subscription) NextBatch() (batch []*Message, ok bool) {
	r := &s.ring
	for {
		r.mu.Lock()
		if len(r.buf) > 0 {
			out := r.buf[r.head:]
			r.buf, r.spare = r.spare[:0], r.buf
			r.head, r.ctl = 0, 0
			closed := r.closed
			r.mu.Unlock()
			// The queue just went empty: hand the space token to at most
			// one publisher parked in a backpressure wait.
			signal(r.space)
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
	return n.SubscribeSet([]int{channel}, buffer, n.policy)
}

// SubscribeWith attaches a listener to one channel with an explicit
// slow-consumer policy.
func (n *Network) SubscribeWith(channel, buffer int, policy Policy) (*Subscription, error) {
	return n.SubscribeSet([]int{channel}, buffer, policy)
}

// SubscribeSet attaches a listener to every channel of a set, possibly
// empty. Its ring holds buffer answers per channel, clamped to at least
// one — a relay feed on k channels keeps the headroom of k
// single-channel subscriptions — and Rebind can re-point the set later.
// Under Block, Publish waits when the ring is full; under Evict or
// DropNewest, Publish never blocks on this subscriber.
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
	sub := &Subscription{
		net:      n,
		channels: set,
		policy:   policy,
		ring: msgRing{
			cap:    buffer * max(1, len(set)),
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
// never stall a publish cycle. It is PublishBatch of a one-message run.
func (n *Network) Publish(msg Message) error {
	return n.PublishBatch([]Message{msg})
}

// PublishBatch publishes a run of messages that all travel on the same
// channel, in order, assigning each its Seq (and stamp and Frame) in
// place. Sequence numbers are assigned under one network lock, one clock
// read stamps the whole run, and each subscriber's ring is locked once
// per stretch of available space instead of once per message. With
// thousands of subscribers and a hundred-odd messages per channel per
// cycle, the per-delivery mutex round-trip is the dominant publish-side
// cost this removes.
func (n *Network) PublishBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
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
	// Subscriber lists are immutable snapshots (see the subs field), so
	// the publish path delivers without copying the list.
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

	// Short runs, a single Publish among them, keep the payload sizes on
	// the stack.
	var small [16]uint64
	payloads := small[:0]
	if len(msgs) > len(small) {
		payloads = make([]uint64, 0, len(msgs))
	}
	var sentPayload, sentHeader uint64
	for i := range msgs {
		p := uint64(msgs[i].PayloadBytes())
		payloads = append(payloads, p)
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
		// Encode once per message: every subscriber below receives the
		// same immutable frame. Encoding happens after seq assignment
		// and timestamping (the frame carries both) and outside the
		// network lock.
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
	var shared []Message // heap copy of the run every ring points into
	if len(targets) > 0 {
		shared = append([]Message(nil), msgs...)
	}
	for ti, sub := range targets {
		var dropRow []bool
		if drop != nil {
			dropRow = drop[ti*len(msgs) : (ti+1)*len(msgs)]
		}
		// Append the whole run under as few ring lock acquisitions as
		// buffer space allows.
		r := &sub.ring
		i := 0
	run:
		for i < len(msgs) {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				break // canceled between snapshot and delivery
			}
			wasEmpty := len(r.buf) == 0
			room := r.cap - r.answers()
			for i < len(msgs) {
				if dropRow != nil && dropRow[i] {
					lossDrops++ // loss drops need no buffer space
					i++
					continue
				}
				if room <= 0 {
					break
				}
				r.buf = append(r.buf, &shared[i])
				room--
				delivered++
				deliveredBytes += payloads[i]
				i++
			}
			nonEmpty := len(r.buf) > 0
			r.mu.Unlock()
			if wasEmpty && nonEmpty {
				signal(r.wake)
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

// evictAll cancels subscribers whose buffers were full under the Evict
// policy, counting and reporting each eviction.
func (n *Network) evictAll(evicted []*Subscription) {
	for _, sub := range evicted {
		sub.evicted.Store(true) // before Cancel: consumers see why the ring ended
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
