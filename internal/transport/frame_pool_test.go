package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"hns/internal/bufpool"
)

// The pooled tagged codec must be byte-identical to the tag followed by
// the reference stream codec (encodeReply + writeFrame). These tests pin
// that equivalence for both reply statuses and arbitrary payloads.

const refTag = 0xCAFE0042

func referenceFramed(tag uint32, cost time.Duration, payload []byte, herr error) ([]byte, error) {
	w := bytes.NewBuffer(binary.BigEndian.AppendUint32(nil, tag))
	if err := writeFrame(w, encodeReply(cost, payload, herr)); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func TestEncodeReplyFramedMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		cost    time.Duration
		payload []byte
		herr    error
	}{
		{"empty ok", 0, nil, nil},
		{"zero-length ok", 5 * time.Millisecond, []byte{}, nil},
		{"small ok", 27 * time.Millisecond, []byte("fiji.cs.washington.edu"), nil},
		{"binary ok", time.Hour, []byte{0, 1, 2, 0xff, 0xfe, 0}, nil},
		{"big ok", 42, bytes.Repeat([]byte{0xab}, 60*1024), nil},
		{"handler error", 3 * time.Millisecond, nil, errors.New("no such zone")},
		{"error with stale payload", 1, []byte("ignored"), errors.New("refused")},
		{"empty error", 0, nil, errors.New("")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceFramed(refTag, tc.cost, tc.payload, tc.herr)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := encodeMuxReplyFramed(refTag, tc.cost, tc.payload, tc.herr)
			if err != nil {
				t.Fatalf("pooled: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pooled frame differs from reference\n got %x\nwant %x", got, want)
			}
			bufpool.Put(got)
		})
	}
}

func TestAppendReplyMatchesEncodeReply(t *testing.T) {
	for _, herr := range []error{nil, errors.New("boom")} {
		for _, payload := range [][]byte{nil, {}, []byte("abc"), bytes.Repeat([]byte("x"), 4096)} {
			want := encodeReply(123456, payload, herr)
			got := appendReply(nil, 123456, payload, herr)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendReply(herr=%v, len=%d) differs", herr, len(payload))
			}
			// And into a dirty pooled buffer: same bytes, no leftover junk.
			dirty := bufpool.Get(16)
			dirty = append(dirty, 0xde, 0xad)
			got2 := appendReply(dirty[:0], 123456, payload, herr)
			if !bytes.Equal(got2, want) {
				t.Fatalf("appendReply into recycled buffer differs")
			}
			bufpool.Put(got2)
		}
	}
}

func TestFrameRequestMatchesReference(t *testing.T) {
	for _, req := range [][]byte{nil, {}, []byte("q"), bytes.Repeat([]byte{7}, 30000)} {
		w := bytes.NewBuffer(binary.BigEndian.AppendUint32(nil, refTag))
		if err := writeFrame(w, req); err != nil {
			t.Fatal(err)
		}
		got, err := frameMuxRequest(refTag, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w.Bytes()) {
			t.Fatalf("frameMuxRequest(len=%d) differs from tag + writeFrame", len(req))
		}
		bufpool.Put(got)
	}
}

// TestFrameRequestOversize pins the read side of the frame limit: a
// tagged header claiming more than maxFrame is refused before any
// allocation, and a frame of exactly maxFrame still reads.
func TestFrameRequestOversize(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, refTag), maxFrame+1)
	if _, _, err := readMuxFramePooled(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize frame header accepted")
	}
	out, err := frameMuxRequest(refTag, make([]byte, maxFrame))
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := readMuxFramePooled(bytes.NewReader(out))
	if err != nil || len(body) != maxFrame {
		t.Fatalf("frame at the limit: len %d, err %v", len(body), err)
	}
	bufpool.Put(body)
	bufpool.Put(out)
}

func TestReadFramePooledMatchesReadFrame(t *testing.T) {
	payload := bytes.Repeat([]byte("meta"), 257)
	w := bytes.NewBuffer(binary.BigEndian.AppendUint32(nil, refTag))
	if err := writeFrame(w, payload); err != nil {
		t.Fatal(err)
	}
	stream := w.Bytes()

	ref, err := readFrame(bytes.NewReader(stream[4:]))
	if err != nil {
		t.Fatal(err)
	}
	tag, got, err := readMuxFramePooled(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if tag != refTag || !bytes.Equal(got, ref) {
		t.Fatalf("pooled tagged read (tag %x) differs from reference read", tag)
	}
	bufpool.Put(got)
}

// FuzzFramedEquivalence feeds arbitrary tags/costs/payloads/error texts
// through the pooled tagged encoder and the reference codec and requires
// identical frames, then round-trips the frame through the pooled tagged
// reader and decodeReply.
func FuzzFramedEquivalence(f *testing.F) {
	f.Add(uint32(1), uint64(0), []byte(nil), "")
	f.Add(uint32(7), uint64(27000000), []byte("fiji.cs.washington.edu"), "")
	f.Add(uint32(0xFFFFFFFF), uint64(1), []byte{0xff, 0x00}, "no such context")
	f.Fuzz(func(t *testing.T, tag uint32, cost uint64, payload []byte, errText string) {
		var herr error
		if errText != "" {
			herr = errors.New(errText)
		}
		want, werr := referenceFramed(tag, time.Duration(cost), payload, herr)
		got, gerr := encodeMuxReplyFramed(tag, time.Duration(cost), payload, herr)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: reference %v, pooled %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frames differ\n got %x\nwant %x", got, want)
		}
		gotTag, body, err := readMuxFramePooled(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("readMuxFramePooled: %v", err)
		}
		if gotTag != tag {
			t.Fatalf("tag %x, want %x", gotTag, tag)
		}
		gotCost, gotPayload, derr := decodeReply(body)
		if herr != nil {
			var re *RemoteError
			if !errors.As(derr, &re) || re.Msg != errText {
				t.Fatalf("decoded error %v, want RemoteError %q", derr, errText)
			}
		} else {
			if derr != nil {
				t.Fatalf("decode: %v", derr)
			}
			if gotCost != time.Duration(cost) || !bytes.Equal(gotPayload, payload) {
				t.Fatalf("round trip mismatch: cost %v payload %x", gotCost, gotPayload)
			}
		}
		bufpool.Put(body)
		bufpool.Put(got)
	})
}

// The alloc-gate benchmark: a warm reply decode must not allocate
// (scripts/bench_alloc.sh enforces ≤1 alloc/op against it and the mux
// codec benchmarks in mux_test.go).

func BenchmarkDecodeReplyWarm(b *testing.B) {
	body := encodeReply(27*time.Millisecond, bytes.Repeat([]byte("record"), 40), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeReply(body); err != nil {
			b.Fatal(err)
		}
	}
}
