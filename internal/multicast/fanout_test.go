package multicast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"qsub/internal/metrics"
)

// fakeFrame builds a deterministic stand-in wire frame: channel, seq and
// tuple ids. The delivery contract under test (one encode per publish,
// shared immutable bytes) is format-agnostic; the real wire encoding is
// pinned by the daemon equivalence tests.
func fakeFrame(m Message) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(m.Channel))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	for _, t := range m.Tuples {
		buf = binary.BigEndian.AppendUint64(buf, t.ID)
	}
	return buf
}

// TestEncodeOncePerPublish pins the tentpole contract: with an encoder
// installed, each Publish encodes exactly once regardless of subscriber
// count, and every subscriber receives the very same backing array.
func TestEncodeOncePerPublish(t *testing.T) {
	const subscribers, messages = 50, 7
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	encodesCounter := reg.Counter("encodes", "")
	net.SetMetrics(nil, nil, nil, encodesCounter)
	var encodes atomic.Int64
	net.SetEncoder(func(m Message) []byte {
		encodes.Add(1)
		return fakeFrame(m)
	})

	subs := make([]*Subscription, subscribers)
	for i := range subs {
		if subs[i], err = net.Subscribe(0, messages); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < messages; i++ {
		if err := net.Publish(Message{Channel: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := encodes.Load(); got != messages {
		t.Fatalf("encoder ran %d times for %d messages × %d subscribers, want exactly %d",
			got, messages, subscribers, messages)
	}
	if got := encodesCounter.Load(); got != messages {
		t.Fatalf("encodes metric = %d, want %d", got, messages)
	}
	// Every subscriber's copy of message seq s aliases one shared array.
	shared := make(map[uint64]*byte)
	for _, sub := range subs {
		sub.Cancel()
		for _, msg := range drainNext(sub) {
			if len(msg.Frame) == 0 {
				t.Fatalf("message seq %d delivered without a frame", msg.Seq)
			}
			first := &msg.Frame[0]
			if prev, ok := shared[msg.Seq]; ok && prev != first {
				t.Fatalf("message seq %d delivered from two distinct frame arrays", msg.Seq)
			}
			shared[msg.Seq] = first
			if want := fakeFrame(Message{Channel: 0, Seq: msg.Seq}); !bytes.Equal(msg.Frame, want) {
				t.Fatalf("frame for seq %d corrupted", msg.Seq)
			}
		}
	}
	if len(shared) != messages {
		t.Fatalf("observed %d distinct frames, want %d", len(shared), messages)
	}
}

// TestEncoderSkippedWithoutSubscribers: a publish on an empty channel
// performs no encode at all — encode cost is per delivered message, not
// per publish attempt.
func TestEncoderSkippedWithoutSubscribers(t *testing.T) {
	net, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	var encodes atomic.Int64
	net.SetEncoder(func(m Message) []byte {
		encodes.Add(1)
		return fakeFrame(m)
	})
	if err := net.Publish(Message{Channel: 1}); err != nil {
		t.Fatal(err)
	}
	if got := encodes.Load(); got != 0 {
		t.Fatalf("encoder ran %d times on a subscriber-less channel, want 0", got)
	}
}

// TestSharedFrameImmutableUnderStress is the aliasing tripwire: many
// subscribers across policies (Block, Evict, DropNewest), concurrent
// publishers and concurrent cancels all hold the same frame arrays; the
// consumers continuously compare their copy against a snapshot taken at
// encode time. Any post-publish write to a shared frame fails the
// comparison — and, run under -race (make race-delivery), shows up as a
// data race between the writer and the byte-wise readers.
func TestSharedFrameImmutableUnderStress(t *testing.T) {
	const (
		channels   = 2
		publishers = 3
		rounds     = 40
	)
	net, err := NewNetwork(channels)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot every frame at encode time, keyed by (channel, seq).
	var snapMu sync.Mutex
	snaps := make(map[[2]uint64][]byte)
	net.SetEncoder(func(m Message) []byte {
		frame := fakeFrame(m)
		snapMu.Lock()
		snaps[[2]uint64{uint64(m.Channel), m.Seq}] = append([]byte(nil), frame...)
		snapMu.Unlock()
		return frame
	})

	policies := []Policy{Block, Evict, DropNewest}
	var consumers sync.WaitGroup
	var mismatches atomic.Int64
	var subsMu sync.Mutex
	var subs []*Subscription
	for ch := 0; ch < channels; ch++ {
		for i, p := range []Policy{policies[0], policies[1], policies[2], policies[1]} {
			sub, err := net.SubscribeWith(ch, 2+i, p)
			if err != nil {
				t.Fatal(err)
			}
			subsMu.Lock()
			subs = append(subs, sub)
			subsMu.Unlock()
			consumers.Add(1)
			go func(sub *Subscription) {
				defer consumers.Done()
				for {
					msg, ok := sub.Next()
					if !ok {
						return
					}
					snapMu.Lock()
					want := snaps[[2]uint64{uint64(msg.Channel), msg.Seq}]
					snapMu.Unlock()
					if !bytes.Equal(msg.Frame, want) {
						mismatches.Add(1)
					}
				}
			}(sub)
		}
	}

	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for r := 0; r < rounds; r++ {
				msg := Message{Channel: (p + r) % channels}
				if err := net.Publish(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Concurrent cancels race the publishes (detach + drain paths alias
	// the frames too).
	pubs.Add(1)
	go func() {
		defer pubs.Done()
		subsMu.Lock()
		victims := append([]*Subscription(nil), subs[:2]...)
		subsMu.Unlock()
		for _, sub := range victims {
			sub.Cancel()
		}
	}()
	pubs.Wait()
	net.Close()
	consumers.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d delivered frames differed from their encode-time snapshot — shared slice was mutated after publish", n)
	}
}

// TestPublishFrameMetricsAllocFree pins the PR 4 contract extended to
// the fan-out instruments: enabling the encodes counter (and the rest of
// the metrics) adds zero allocations to a Publish that attaches a
// shared frame.
func TestPublishFrameMetricsAllocFree(t *testing.T) {
	run := func(withMetrics bool) float64 {
		net, err := NewNetwork(1)
		if err != nil {
			t.Fatal(err)
		}
		if withMetrics {
			reg := metrics.NewRegistry()
			net.SetMetrics(
				reg.Counter("deliveries", ""), reg.Counter("dropped", ""),
				reg.Counter("evicted", ""), reg.Counter("encodes", ""))
		}
		// Precomputed frame: the encoder itself is allocation-free, so
		// the measurement isolates Publish + instrument overhead.
		frame := []byte{1, 2, 3, 4}
		net.SetEncoder(func(Message) []byte { return frame })
		sub, err := net.SubscribeWith(0, 1, DropNewest)
		if err != nil {
			t.Fatal(err)
		}
		msg := Message{Channel: 0}
		return testing.AllocsPerRun(100, func() {
			if err := net.Publish(msg); err != nil {
				t.Fatal(err)
			}
			sub.Next() // drain so the buffer never overflows
		})
	}
	base, instrumented := run(false), run(true)
	if instrumented != base {
		t.Fatalf("Publish with fan-out metrics: %v allocs/op, uninstrumented %v — instrumentation must be allocation-free",
			instrumented, base)
	}
}

// TestPublishSingleFrameAllocs pins the relay ingest path: Publish of a
// message whose Frame is already set costs one allocation — the heap
// copy every subscriber's ring points into — however many subscribers
// it reaches. Publish runs as a one-message PublishBatch, which must
// keep the run's bookkeeping off the heap.
func TestPublishSingleFrameAllocs(t *testing.T) {
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscription, 4)
	for i := range subs {
		if subs[i], err = net.SubscribeWith(0, 1, Policy(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	msg := Message{Channel: 0, Frame: []byte{1, 2, 3, 4}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := net.Publish(msg); err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if _, ok := sub.Next(); !ok {
				t.Fatal("subscription ended")
			}
		}
	})
	if allocs > 1 {
		t.Fatalf("single-frame Publish to %d subscribers: %v allocs/op, want at most 1", len(subs), allocs)
	}
}

func ExampleNetwork_SetEncoder() {
	net, _ := NewNetwork(1)
	net.SetEncoder(func(m Message) []byte {
		return []byte(fmt.Sprintf("frame(seq=%d)", m.Seq))
	})
	sub, _ := net.Subscribe(0, 1)
	net.Publish(Message{Channel: 0})
	msg, _ := sub.Next()
	fmt.Println(string(msg.Frame))
	// Output: frame(seq=1)
}

// TestPublishClockStampAllocFree pins the timestamp half of the
// zero-alloc contract: installing a publish clock stamps every message
// at seq assignment without adding a single allocation, and the stamp
// reaches subscribers (and the encoder) intact.
func TestPublishClockStampAllocFree(t *testing.T) {
	run := func(withClock bool) float64 {
		net, err := NewNetwork(1)
		if err != nil {
			t.Fatal(err)
		}
		var stamped int64
		if withClock {
			net.SetClock(func() int64 { return 1234567890 })
		}
		frame := []byte{1, 2, 3, 4}
		net.SetEncoder(func(m Message) []byte {
			stamped = m.PublishedUnixNano
			return frame
		})
		sub, err := net.SubscribeWith(0, 1, DropNewest)
		if err != nil {
			t.Fatal(err)
		}
		msg := Message{Channel: 0}
		allocs := testing.AllocsPerRun(100, func() {
			if err := net.Publish(msg); err != nil {
				t.Fatal(err)
			}
			got, _ := sub.Next()
			if withClock && got.PublishedUnixNano != 1234567890 {
				t.Fatalf("delivered stamp %d, want 1234567890", got.PublishedUnixNano)
			}
			if !withClock && got.PublishedUnixNano != 0 {
				t.Fatalf("no clock installed but message stamped %d", got.PublishedUnixNano)
			}
		})
		if withClock && stamped != 1234567890 {
			t.Fatalf("encoder saw stamp %d, want 1234567890", stamped)
		}
		return allocs
	}
	base, stamped := run(false), run(true)
	if stamped != base {
		t.Fatalf("Publish with clock: %v allocs/op, unstamped %v — stamping must be allocation-free",
			stamped, base)
	}
}

// TestPublishBatchStampsWholeRun pins PublishBatch's single clock read:
// every message of a batch carries the same stamp.
func TestPublishBatchStampsWholeRun(t *testing.T) {
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(100)
	net.SetClock(func() int64 { now++; return now })
	sub, err := net.Subscribe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{{Channel: 0}, {Channel: 0}, {Channel: 0}}
	if err := net.PublishBatch(msgs); err != nil {
		t.Fatal(err)
	}
	m, _ := sub.Next()
	first := m.PublishedUnixNano
	if first == 0 {
		t.Fatal("batch message unstamped")
	}
	for i := 1; i < len(msgs); i++ {
		if m, _ := sub.Next(); m.PublishedUnixNano != first {
			t.Fatalf("batch message %d stamped %d, first was %d — one clock read per batch", i, m.PublishedUnixNano, first)
		}
	}
}
