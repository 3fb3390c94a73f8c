package fabric

import (
	"net"
	"testing"
	"time"

	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/wire"
)

// newTestSession attaches a session on one end of a loopback TCP
// connection to a fresh subscription with an empty channel set,
// returning the network, the session, the peer end and the metrics.
func newTestSession(t *testing.T, channels int) (*multicast.Network, *Session, net.Conn, *metrics.Catalog) {
	t.Helper()
	mnet, err := multicast.NewNetwork(channels)
	if err != nil {
		t.Fatal(err)
	}
	cat := metrics.NewCatalog(channels)
	mnet.SetMetrics(cat.FanoutDeliveries, cat.FanoutDropped, cat.FanoutEvictions, nil)
	sub, err := mnet.SubscribeSet(nil, 8, multicast.Evict)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	local, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s := New(7, local, Options{
		WriteTimeout: 5 * time.Second,
		Metrics:      cat,
		Now:          func() int64 { return time.Now().UnixNano() },
		Channels:     channels,
	})
	if !s.Attach(mnet, sub) {
		t.Fatal("Attach refused on a fresh session")
	}
	t.Cleanup(func() {
		s.Close()
		peer.Close()
		mnet.Close()
	})
	return mnet, s, peer, cat
}

// answer publishes a one-byte-payload answer frame on a channel.
func answer(t *testing.T, mnet *multicast.Network, channel int, payload byte) {
	t.Helper()
	if err := mnet.Publish(multicast.Message{Channel: channel, Frame: Frame(wire.TypeAnswer, []byte{payload})}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionWritesInEnqueueOrder: answers and control frames leave the
// socket in the order they reached the ring, a rebind takes effect
// between them, and only answers count in the fan-out counters.
func TestSessionWritesInEnqueueOrder(t *testing.T) {
	mnet, s, peer, cat := newTestSession(t, 2)
	if err := s.Rebind(mnet, 0); err != nil {
		t.Fatal(err)
	}
	answer(t, mnet, 0, 'a')
	answer(t, mnet, 1, 'x') // not bound: never delivered
	if err := s.Rebind(mnet, 1); err != nil {
		t.Fatal(err)
	}
	if !s.Enqueue(wire.TypeAssigned, []byte{'B'}) {
		t.Fatal("Enqueue refused on a live session")
	}
	answer(t, mnet, 0, 'y') // no longer bound
	answer(t, mnet, 1, 'b')

	want := []struct {
		ft      uint8
		payload byte
	}{{wire.TypeAnswer, 'a'}, {wire.TypeAssigned, 'B'}, {wire.TypeAnswer, 'b'}}
	for i, w := range want {
		ft, payload, err := wire.ReadFrame(peer)
		if err != nil {
			t.Fatal(err)
		}
		if ft != w.ft || len(payload) != 1 || payload[0] != w.payload {
			t.Fatalf("frame %d: type %d payload %q, want type %d payload %q", i, ft, payload, w.ft, w.payload)
		}
	}
	waitUntil(t, func() bool { return cat.FanoutFramesWritten.Load() == 2 })
	if got := cat.FanoutDeliveries.Load(); got != 2 {
		t.Errorf("FanoutDeliveries = %d, want 2 answers", got)
	}
	if got, want := cat.FanoutBytes.Load(), uint64(2*(wire.HeaderSize+1)); got != want {
		t.Errorf("FanoutBytes = %d, want %d (answers only)", got, want)
	}
	lag := s.Lag(mnet, time.Now().UnixNano())
	if lag.Channel != 1 || lag.SeqLag != 0 {
		t.Errorf("lag %+v, want channel 1 caught up", lag)
	}
}

// TestSessionStopDrainsThenCloses: Stop writes everything queued before
// returning and leaves the connection open for a farewell; Attach after
// Stop is refused.
func TestSessionStopDrainsThenCloses(t *testing.T) {
	mnet, s, peer, _ := newTestSession(t, 1)
	if err := s.Rebind(mnet, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		answer(t, mnet, 0, byte('0'+i))
	}
	read := make(chan int, 1)
	go func() {
		n := 0
		for {
			ft, _, err := wire.ReadFrame(peer)
			if err != nil || ft == wire.TypeBye {
				read <- n
				return
			}
			n++
		}
	}()
	s.Stop()
	if err := s.Write(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
	if n := <-read; n != 3 {
		t.Fatalf("peer read %d answers before the farewell, want 3", n)
	}
	sub, err := mnet.SubscribeSet(nil, 1, multicast.Evict)
	if err != nil {
		t.Fatal(err)
	}
	if s.Attach(mnet, sub) {
		t.Fatal("Attach accepted a subscription after Stop")
	}
}

func waitUntil(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
