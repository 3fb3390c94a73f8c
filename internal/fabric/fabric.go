// Package fabric is the delivery fabric the root daemon and the relay
// tier share. Every connection is one Session: one multicast batch-ring
// subscription that lasts as long as the session, drained by one
// forwarder goroutine that writes the queued frames with vectored
// writes in queue order. Answer frames reach the ring by publishing
// (the root's encode-once frames, a relay's verbatim upstream frames);
// control frames are queued on the same ring with Enqueue. Rebinds and
// control frames issued by the publishing goroutine therefore land
// exactly between the answers published before and after them, so a
// connection's bytes leave in publish order at every tier.
package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/wire"
)

// maxBatch caps how many queued frames a forwarder coalesces into one
// vectored flush: well under IOV_MAX (1024), while amortizing the
// per-flush deadline and syscall ~256x for deep queues.
const maxBatch = 256

// Options configure a session. Metrics and Now are required.
type Options struct {
	// WriteTimeout bounds each flush; zero disables write deadlines.
	WriteTimeout time.Duration
	// Metrics receives the fan-out and session-lifecycle counters.
	Metrics *metrics.Catalog
	// Now is the staleness clock, in UnixNano.
	Now func() int64
	// Channels sizes the per-channel sequence watermarks Lag reads;
	// zero disables them.
	Channels int
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Session is one connection's delivery state.
type Session struct {
	// ID is the client id the connection introduced itself with.
	ID   int
	conn net.Conn
	opt  Options

	writeMu sync.Mutex // serializes flushes and direct writes onto conn

	mu     sync.Mutex
	sub    *multicast.Subscription
	done   chan struct{} // closed when the latest forwarder exits
	closed bool

	// Lag bookkeeping, updated lock-free by the forwarder after each
	// flush: the newest written sequence number per channel and when
	// the flush went out.
	seqs          []atomic.Uint64
	lastWriteNano atomic.Int64
}

// New wraps a connection. The session delivers nothing until Attach.
func New(id int, conn net.Conn, opt Options) *Session {
	return &Session{ID: id, conn: conn, opt: opt, seqs: make([]atomic.Uint64, opt.Channels)}
}

// Conn returns the session's connection.
func (s *Session) Conn() net.Conn { return s.conn }

// Attach hands the session a subscription on net and starts the
// forwarder that drains it. A previous subscription — the empty one a
// relay feed replaces with its channel set, or one whose network closed
// under a relay's client — is canceled, and the new forwarder starts
// writing only once the previous one has written everything queued
// there. Attach reports false, and cancels sub, when the session is
// already closed.
func (s *Session) Attach(net *multicast.Network, sub *multicast.Subscription) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sub.Cancel()
		return false
	}
	old, prev, done := s.sub, s.done, make(chan struct{})
	s.sub, s.done = sub, done
	s.mu.Unlock()
	if old != nil {
		old.Cancel()
	}
	s.markHeads(net, sub.Channels(), nil)
	go s.forward(sub, prev, done)
	return true
}

// Subscription returns the session's current subscription, nil before
// Attach.
func (s *Session) Subscription() *multicast.Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sub
}

// Rebind re-points the session's subscription at a channel set in
// place (see multicast.Subscription.Rebind). Channels the session newly
// joins start their lag watermark at the channel head: what was
// published there before is not owed to it.
func (s *Session) Rebind(net *multicast.Network, channels ...int) error {
	sub := s.Subscription()
	if sub == nil {
		return errors.New("fabric: session has no subscription")
	}
	old := sub.Channels()
	if err := sub.Rebind(channels...); err != nil {
		return err
	}
	s.markHeads(net, channels, old)
	return nil
}

// markHeads starts the lag watermark of each channel the session joins,
// except those it was already on, at the channel head.
func (s *Session) markHeads(net *multicast.Network, channels, already []int) {
	for _, c := range channels {
		if c < len(s.seqs) && !slices.Contains(already, c) {
			s.seqs[c].Store(net.CurrentSeq(c))
		}
	}
}

// Enqueue queues one control frame on the session's ring. It reports
// false when the session has no live subscription.
func (s *Session) Enqueue(frameType uint8, payload []byte) bool {
	sub := s.Subscription()
	return sub != nil && sub.Enqueue(Frame(frameType, payload))
}

// Frame builds a complete wire frame, header and payload copy, ready to
// queue. The returned slice is immutable once queued.
func Frame(frameType uint8, payload []byte) []byte {
	frame := make([]byte, wire.HeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	frame[4] = frameType
	copy(frame[wire.HeaderSize:], payload)
	return frame
}

// Write writes one frame directly to the connection under the write
// deadline, bypassing the ring: for a farewell after Stop, when nothing
// is left to order it against.
func (s *Session) Write(frameType uint8, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.deadline()
	return wire.WriteFrame(s.conn, frameType, payload)
}

func (s *Session) deadline() {
	if s.opt.WriteTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
	}
}

// Stop ends delivery gracefully: the subscription is canceled and Stop
// returns once the forwarder has written everything already queued
// (bounded by the write deadline). The connection stays open.
func (s *Session) Stop() { s.end(false) }

// Close tears the session down: the subscription is canceled, the
// connection closed (unblocking a forwarder stuck in a write) and the
// forwarder joined. Close is idempotent.
func (s *Session) Close() { s.end(true) }

func (s *Session) end(closeConn bool) {
	s.mu.Lock()
	s.closed = true
	sub, done := s.sub, s.done
	s.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
	if closeConn {
		s.conn.Close()
	}
	if done != nil {
		<-done
	}
}

func (s *Session) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// forward drains one subscription after the previous forwarder (if any)
// has finished, then settles how the subscription ended: an evicted
// session is told why and disconnected, a failed write disconnects, and
// a plain cancel (session teardown, or the network closing) ends
// quietly.
func (s *Session) forward(sub *multicast.Subscription, prev, done chan struct{}) {
	defer close(done)
	if prev != nil {
		<-prev
	}
	err := s.drain(sub)
	if err != nil {
		sub.Cancel()
	}
	m := s.opt.Metrics
	// An eviction can land while the forwarder is blocked in a write,
	// so the evicted check must cover both exit paths.
	switch {
	case sub.Evicted():
		m.SessionsEvicted.Inc()
		s.logf("fabric: client %d evicted as a slow consumer on channel %d", s.ID, sub.Channel())
		s.Write(wire.TypeError, wire.MarshalError(wire.Error{
			Msg: fmt.Sprintf("evicted: delivery queue full on channel %d", sub.Channel())}))
		// The session cannot make progress without its answer stream;
		// closing the conn lets the read loop tear the whole session
		// down.
		s.conn.Close()
	case err != nil:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			m.SessionsExpired.Inc()
			m.SessionsExpiredWrite.Inc()
		}
		s.conn.Close()
	}
}

// seqMark is the newest sequence number of one channel in a flush.
type seqMark struct {
	ch  int
	seq uint64
}

// drain pumps the subscription's queued frames onto the socket until
// the subscription ends or a write fails, returning the write error.
// One NextBatch call swaps out everything queued since the last wakeup,
// and frames are coalesced (up to maxBatch) into vectored flushes. The
// batch only holds aliases of the shared frames, never copies. Control
// frames are written in place but count in none of the fan-out
// counters.
func (s *Session) drain(sub *multicast.Subscription) error {
	m := s.opt.Metrics
	batch := make(net.Buffers, 0, maxBatch)
	var marks []seqMark
	for {
		msgs, ok := sub.NextBatch()
		for len(msgs) > 0 {
			n := min(len(msgs), maxBatch)
			batch, marks = batch[:0], marks[:0]
			var answers, bytes uint64
			for i := range msgs[:n] {
				msg := msgs[i]
				batch = append(batch, msg.Frame)
				if msg.Control() {
					continue
				}
				answers++
				bytes += uint64(len(msg.Frame))
				if k := len(marks) - 1; k >= 0 && marks[k].ch == msg.Channel {
					marks[k].seq = msg.Seq
				} else {
					marks = append(marks, seqMark{msg.Channel, msg.Seq})
				}
			}
			msgs = msgs[n:]
			m.FanoutFramesShared.Add(answers)
			m.FanoutBytes.Add(bytes)
			if err := s.flush(batch); err != nil {
				return err
			}
			if answers == 0 {
				continue
			}
			m.FanoutFramesWritten.Add(answers)
			m.FanoutFlushes.Inc()
			for _, mk := range marks {
				if mk.ch < len(s.seqs) {
					s.seqs[mk.ch].Store(mk.seq)
				}
			}
			s.lastWriteNano.Store(s.opt.Now())
		}
		if !ok {
			return nil
		}
	}
}

// flush writes a batch of frames under one write deadline: one writev
// on TCP. The batch is passed by value because WriteTo consumes the
// slice it is invoked on.
func (s *Session) flush(bufs net.Buffers) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.deadline()
	_, err := bufs.WriteTo(s.conn)
	return err
}

// Lag is one session's delivery-lag snapshot: its worst channel (-1
// when unbound), how many sequence numbers it trails that channel's
// head, its queued answer count, and how long ago its last answer flush
// went out (0 before any).
type Lag struct {
	Channel     int
	SeqLag      uint64
	QueueDepth  int
	StalenessMs int64
}

// Lag snapshots the session's lag against net's channel heads at
// nowNano. A session on several channels (a relay feed) reports its
// worst channel, so a feed that stalls on any channel surfaces just
// like a slow client.
func (s *Session) Lag(net *multicast.Network, nowNano int64) Lag {
	lag := Lag{Channel: -1}
	if sub := s.Subscription(); sub != nil {
		lag.QueueDepth = sub.Depth()
		for _, c := range sub.Channels() {
			var seqLag uint64
			if c < len(s.seqs) {
				if head, last := net.CurrentSeq(c), s.seqs[c].Load(); head > last {
					seqLag = head - last
				}
			}
			if lag.Channel < 0 || seqLag > lag.SeqLag {
				lag.Channel, lag.SeqLag = c, seqLag
			}
		}
	}
	if last := s.lastWriteNano.Load(); last != 0 && nowNano > last {
		lag.StalenessMs = (nowNano - last) / 1e6
	}
	return lag
}
