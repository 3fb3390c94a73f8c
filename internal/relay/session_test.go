package relay

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/netfault"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// TestRelayDuplicateClientSupersedes is the relay-side twin of
// TestDaemonDuplicateClientSupersedes: a client id reconnecting to the
// relay replaces its half-open predecessor — whose registration is
// released at the root, not merely shadowed, and whose connection is
// closed — and the successor gets answers.
func TestRelayDuplicateClientSupersedes(t *testing.T) {
	root, rootAddr := startRoot(t, 1)
	rl, relayAddr, _ := startRelay(t, Config{Upstream: rootAddr, RelayID: 1 << 30, Logf: t.Logf})

	a, err := daemon.Dial(relayAddr, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Subscribe(query.Range(1, geom.R(0, 0, 10, 10))); err != nil {
		t.Fatal(err)
	}
	waitForQueries(t, root, 1)

	// The predecessor is left half-open: it never says Bye.
	b, err := daemon.Dial(relayAddr, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Subscribe(query.Range(2, geom.R(20, 20, 400, 400))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the registry to hold exactly the successor's query", func() bool {
		cy, err := root.Server().Plan()
		return err == nil && len(cy.Queries) == 1 && cy.Queries[0].ID == 2
	})
	if got := rl.Metrics().SessionsSuperseded.Load(); got != 1 {
		t.Fatalf("SessionsSuperseded = %d, want 1", got)
	}
	if _, err := a.Next(); err == nil {
		t.Fatal("superseded session's connection should be closed")
	}
	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		for {
			ev, err := b.Next()
			if err != nil || ev.Answer != nil {
				got <- err
				return
			}
		}
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor received no answer")
	}
	if st := rl.Status(); st.Sessions != 1 || st.Relay.Clients != 1 {
		t.Errorf("relay holds %d sessions and %d routes after the supersede, want 1 and 1", st.Sessions, st.Relay.Clients)
	}
}

// TestRelaySlowConsumerEvicted is the relay-side twin of
// TestDaemonSlowConsumerEvicted: a downstream client that stops reading
// fills its queue and is evicted with the root's "evicted" error frame,
// counted in SessionsEvicted and FanoutEvictions, while a sibling on the
// same channel still receives every frame, byte for byte what a direct
// client of the root received.
func TestRelaySlowConsumerEvicted(t *testing.T) {
	root, rootAddr := startRoot(t, 1)
	// Heavy tuples make every full cycle a megabyte-sized frame, so the
	// stalled client's socket buffers fill within a few cycles.
	rel := root.Server().Relation()
	for i := 0; i < 300; i++ {
		rel.Insert(geom.Pt(float64(100+i), 500), bytes.Repeat([]byte{'x'}, 4096))
	}
	rl, relayAddr, _ := startRelay(t, Config{
		Upstream:         rootAddr,
		RelayID:          1 << 30,
		SubscriberBuffer: 2,
		Logf:             t.Logf,
	})

	rect := geom.R(0, 0, 1000, 1000)
	direct := newSubscriber(t, rootAddr, 101, query.Range(101, rect))
	sibling := newSubscriber(t, relayAddr, 201, query.Range(201, rect))
	raw, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	fc := netfault.Wrap(raw)
	slow, err := daemon.NewConn(fc, 301)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if err := slow.Subscribe(query.Range(301, rect)); err != nil {
		t.Fatal(err)
	}
	waitForQueries(t, root, 3)
	fc.StallReads()

	cycles := 0
	for rl.Metrics().FanoutEvictions.Load() == 0 {
		if cycles == 100 {
			t.Fatal("stalled relay client was never evicted")
		}
		if _, err := root.RunCycle(false); err != nil {
			t.Fatal(err)
		}
		cycles++
		// Pace the cycles to the readers, so only the stalled client
		// ever falls behind.
		waitFor(t, "cycle delivery", func() bool {
			return direct.frameCount() == cycles && sibling.frameCount() == cycles
		})
	}
	// Draining the stalled client lets its forwarder finish the write it
	// was blocked in, notice the eviction and send the notice.
	fc.ResumeReads()
	notice := make(chan string, 1)
	go func() {
		var msg string
		for {
			ev, err := slow.Next()
			if err != nil {
				notice <- msg
				return
			}
			if ev.Err != nil {
				msg = ev.Err.Msg
			}
		}
	}()
	waitFor(t, "the eviction to be counted", func() bool { return rl.Metrics().SessionsEvicted.Load() == 1 })
	if evictErr := <-notice; !strings.HasPrefix(evictErr, "evicted:") {
		t.Fatalf("evicted client got error %q, want the root's eviction notice", evictErr)
	}

	if _, err := root.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	cycles++
	waitFor(t, "post-eviction delivery", func() bool {
		return direct.frameCount() == cycles && sibling.frameCount() == cycles
	})
	drainRelay(t, rl)
	if !bytes.Equal(direct.stream(), sibling.stream()) {
		t.Fatal("sibling's relayed stream differs from the direct client's")
	}
	if sibling.errs != 0 {
		t.Errorf("sibling received %d error frames", sibling.errs)
	}
	if got := rl.Metrics().SessionsEvicted.Load(); got != 1 {
		t.Errorf("SessionsEvicted = %d, want 1 (only the stalled client)", got)
	}
}

// fakeUpstream accepts relay feed connections and answers each with a
// scripted frame sequence, reporting every accepted connection.
type fakeUpstream struct {
	ln      net.Listener
	accepts chan net.Conn
}

func startFakeUpstream(t *testing.T, script func(net.Conn)) *fakeUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every reconnect one case waits for; later ones are
	// dropped, not blocked on.
	f := &fakeUpstream{ln: ln, accepts: make(chan net.Conn, 16)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				// Hello, then RelaySub: the relay's handshake.
				for i := 0; i < 2; i++ {
					if _, _, err := wire.ReadFrame(conn); err != nil {
						return
					}
				}
				script(conn)
				select {
				case f.accepts <- conn:
				default:
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

// messageOn is a minimal answer message on a channel.
func messageOn(channel int) multicast.Message {
	return multicast.Message{Channel: channel, Seq: 1}
}

// TestRelayRejectsHostileUpstream drives the relay against upstreams
// that break the feed contract. Each must end the feed — the relay
// closes the connection and dials again — without the bad value ever
// sizing anything or a frame being silently dropped.
func TestRelayRejectsHostileUpstream(t *testing.T) {
	frame := func(ft uint8, payload []byte) []byte {
		var b bytes.Buffer
		wire.WriteFrame(&b, ft, payload)
		return b.Bytes()
	}
	answer := func(channel int) []byte {
		return frame(wire.TypeAnswer, wire.MarshalMessageAppend(nil, messageOn(channel)))
	}
	ack := func(channels int) []byte {
		return frame(wire.TypeRelayAck, wire.MarshalRelayAck(wire.RelayAck{Hop: 1, Channels: channels}))
	}
	cases := []struct {
		name      string
		script    []byte
		connected bool // whether the relay accepts the ack before failing
	}{
		{"zero channels", ack(0), false},
		{"channel count past the bound", ack(MaxUpstreamChannels + 1), false},
		{"u32 channel count", frame(wire.TypeRelayAck, []byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}), false},
		{"answer before the ack", answer(0), false},
		{"control frame before the ack", frame(wire.TypeRelayCtl,
			wire.MarshalRelayCtl(wire.RelayCtl{ClientID: 1, Inner: wire.TypeBye})), false},
		{"answer outside the acked channels", append(ack(2), answer(2)...), true},
		{"second ack", append(ack(2), ack(2)...), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := startFakeUpstream(t, func(conn net.Conn) { conn.Write(tc.script) })
			r, err := New(Config{
				Upstream:   up.ln.Addr().String(),
				RelayID:    1 << 30,
				MinBackoff: 5 * time.Millisecond,
				MaxBackoff: 20 * time.Millisecond,
				Logf:       t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			ran := make(chan error, 1)
			go func() { ran <- r.Run(ctx, ln) }()
			defer func() {
				cancel()
				<-ran
			}()

			first := <-up.accepts
			first.SetReadDeadline(time.Now().Add(5 * time.Second))
			var one [1]byte
			if _, err := first.Read(one[:]); err == nil {
				t.Fatal("relay kept the feed open after the bad frame")
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("relay never closed the feed after the bad frame")
			}
			select {
			case <-up.accepts:
			case <-time.After(5 * time.Second):
				t.Fatal("relay did not reconnect after ending the feed")
			}
			waitFor(t, "the reconnect to be counted", func() bool { return r.Metrics().RelayReconnects.Load() >= 1 })
			if connected := r.Metrics().RelayHop.Load() == 1; connected != tc.connected {
				t.Errorf("relay accepted the ack: %v, want %v", connected, tc.connected)
			}
		})
	}
}
