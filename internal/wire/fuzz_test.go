package wire

import (
	"bytes"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// The fuzzers assert the decoder's only failure mode is a clean error:
// no panics, no runaway allocation, and re-encoding a successfully
// decoded value reproduces identical bytes (canonical encoding).

func FuzzUnmarshalSubscribe(f *testing.F) {
	seed, _ := MarshalSubscribe(Subscribe{Query: query.Range(7, geom.R(1, 2, 3, 4))})
	f.Add(seed)
	poly, _ := MarshalSubscribe(Subscribe{Query: query.Query{
		ID:     9,
		Region: geom.ConvexHull([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 3}}),
	}})
	f.Add(poly)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSubscribe(data)
		if err != nil {
			return
		}
		re, err := MarshalSubscribe(s)
		if err != nil {
			t.Fatalf("decoded value fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs: % x vs % x", re, data)
		}
	})
}

func FuzzUnmarshalMessage(f *testing.F) {
	msg := multicast.Message{
		Channel: 1,
		Seq:     2,
		Tuples:  []relation.Tuple{{ID: 3, Pos: geom.Pt(4, 5), Payload: []byte("p")}},
		Header:  []multicast.HeaderEntry{{ClientID: 6, QueryIDs: []query.ID{7}}},
	}
	f.Add(MarshalMessage(msg))
	stamped := msg
	stamped.PublishedUnixNano = 1_754_650_000_123_456_789
	f.Add(MarshalMessage(stamped))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMessage(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalMessage(m), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeHello, []byte("hi"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful read must round-trip through WriteFrame.
		var out bytes.Buffer
		if err := WriteFrame(&out, ft, payload); err != nil {
			t.Fatalf("re-framing failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-framed bytes differ")
		}
	})
}

func FuzzUnmarshalRelaySub(f *testing.F) {
	f.Add(MarshalRelaySub(RelaySub{}))
	f.Add(MarshalRelaySub(RelaySub{Mask: ChannelMask(0, 3, 70)}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRelaySub(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalRelaySub(rs), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalRelayAck(f *testing.F) {
	f.Add(MarshalRelayAck(RelayAck{Hop: 1, Channels: 16}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalRelayAck(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalRelayAck(a), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalRelayCtl(f *testing.F) {
	f.Add(MarshalRelayCtl(RelayCtl{ClientID: 42, Inner: TypeAssigned,
		Payload: MarshalAssigned(Assigned{Channel: 3, EstimatedCost: 1.5, InitialCost: 2})}))
	f.Add(MarshalRelayCtl(RelayCtl{ClientID: -1, Inner: TypeBye}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := UnmarshalRelayCtl(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalRelayCtl(rc), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalHello(f *testing.F) {
	f.Add(MarshalHello(Hello{ClientID: 42}))
	f.Add(MarshalHello(Hello{ClientID: -1}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHello(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalHello(h), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalUnsubscribe(f *testing.F) {
	f.Add(MarshalUnsubscribe(Unsubscribe{ID: 7}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := UnmarshalUnsubscribe(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalUnsubscribe(u), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalAssigned(f *testing.F) {
	f.Add(MarshalAssigned(Assigned{Channel: 3, EstimatedCost: 1.5, InitialCost: 2}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAssigned(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalAssigned(a), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalError(f *testing.F) {
	f.Add(MarshalError(Error{Msg: "evicted: slow consumer"}))
	f.Add(MarshalError(Error{}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalError(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalError(e), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}
