package multicast

import (
	"reflect"
	"testing"
	"time"
)

// TestSubscribeSetDeliversEveryChannel: a set subscription receives the
// messages of every channel in its set, in publish order, and its ring
// holds one buffer's worth of answers per channel.
func TestSubscribeSetDeliversEveryChannel(t *testing.T) {
	n, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeSet([]int{3, 1, 3}, 2, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Channels(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Channels() = %v, want [1 3]", got)
	}
	// Four answers fit (2 per channel × 2 channels) whatever their mix.
	for _, ch := range []int{1, 1, 3, 1, 0, 2} {
		if err := n.Publish(Message{Channel: ch}); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Evicted() {
		t.Fatal("set subscription evicted within its buffer × channels capacity")
	}
	batch, _ := sub.NextBatch()
	var chans []int
	for _, m := range batch {
		chans = append(chans, m.Channel)
	}
	if !reflect.DeepEqual(chans, []int{1, 1, 3, 1}) {
		t.Fatalf("set subscription received channels %v, want [1 1 3 1]", chans)
	}
	if _, err := n.SubscribeSet([]int{4}, 1, Block); err == nil {
		t.Fatal("SubscribeSet accepted an out-of-range channel")
	}
}

// TestRebindInPlace: Rebind keeps what is queued, delivers only the new
// set's messages afterwards, resizes the answer capacity with the set,
// and is a no-op on a canceled subscription.
func TestRebindInPlace(t *testing.T) {
	n, err := NewNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeSet(nil, 1, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Channel() != -1 {
		t.Fatalf("empty set reports channel %d, want -1", sub.Channel())
	}
	if err := sub.Rebind(0); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Rebind(2); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []int{0, 1, 2} {
		if err := n.Publish(Message{Channel: ch}); err != nil {
			t.Fatal(err)
		}
	}
	// A one-answer ring is now full (the channel-0 answer plus the
	// channel-2 one would be two), so the channel-2 publish evicted it.
	if !sub.Evicted() {
		t.Fatal("a full one-answer ring was not evicted")
	}
	got := drainAll(sub)
	if len(got) != 1 || got[0].Channel != 0 || got[0].Seq != 1 {
		t.Fatalf("rebound subscription drained %+v, want the queued channel-0 message", got)
	}

	sub, err = n.SubscribeSet([]int{0}, 1, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Rebind(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []int{0, 1, 2} {
		if err := n.Publish(Message{Channel: ch}); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Evicted() {
		t.Fatal("two-channel rebind kept a one-answer capacity")
	}
	batch, _ := sub.NextBatch()
	if len(batch) != 2 || batch[0].Channel != 1 || batch[1].Channel != 2 {
		t.Fatalf("after Rebind(1, 2) received %+v, want channels 1 and 2", batch)
	}
	if err := sub.Rebind(3); err == nil {
		t.Fatal("Rebind accepted an out-of-range channel")
	}
	sub.Cancel()
	if err := sub.Rebind(0); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Deliveries; got != 3 {
		t.Fatalf("a canceled subscription rebound and kept receiving (%d deliveries, want 3)", got)
	}
}

// TestEnqueueControlTakesNoCapacity: control frames queue in order with
// answers but never count against the answer capacity, so a one-answer
// Block ring neither blocks the control enqueue nor the publish after
// it, and Close reaches a subscription with an empty channel set.
func TestEnqueueControlTakesNoCapacity(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeSet([]int{0}, 1, Block)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Enqueue([]byte("a")) || !sub.Enqueue([]byte("b")) {
		t.Fatal("Enqueue refused on a live subscription")
	}
	published := make(chan error, 1)
	go func() { published <- n.Publish(Message{Channel: 0}) }()
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control frames took the only answer slot: publish blocked")
	}
	if !sub.Enqueue([]byte("c")) {
		t.Fatal("Enqueue refused on a ring full of answers")
	}
	if d := sub.Depth(); d != 1 {
		t.Fatalf("Depth() = %d, want 1 queued answer", d)
	}
	batch, _ := sub.NextBatch()
	var kinds []string
	for _, m := range batch {
		if m.Control() {
			kinds = append(kinds, string(m.Frame))
		} else {
			kinds = append(kinds, "answer")
		}
	}
	if !reflect.DeepEqual(kinds, []string{"a", "b", "answer", "c"}) {
		t.Fatalf("ring order %v, want [a b answer c]", kinds)
	}

	idle, err := n.SubscribeSet(nil, 1, Block)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if _, ok := idle.NextBatch(); ok {
		t.Fatal("Close did not end a subscription with an empty channel set")
	}
	if sub.Enqueue([]byte("d")) {
		t.Fatal("Enqueue accepted a frame after Close")
	}
}
