package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hns/internal/bufpool"
	"hns/internal/metrics"
	"hns/internal/simtime"
)

// ---- Tagged frame codec.

func TestMuxFrameCodecRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte(""), []byte("x"), bytes.Repeat([]byte("mux"), 500)} {
		out, err := frameMuxRequest(7, payload)
		if err != nil {
			t.Fatal(err)
		}
		tag, body, err := readMuxFramePooled(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if tag != 7 {
			t.Fatalf("tag = %d, want 7", tag)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("body = %q, want %q", body, payload)
		}
	}
}

// TestMuxFrameMatchesLegacyFrame pins the frame layout: a tagged frame
// is byte-for-byte the 4-byte tag followed by the length-prefixed stream
// frame (writeFrame), for requests and replies alike, so the envelope
// codec is shared.
func TestMuxFrameMatchesLegacyFrame(t *testing.T) {
	untagged := func(body []byte) []byte {
		var w bytes.Buffer
		if err := writeFrame(&w, body); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	req := []byte("request-payload")
	tagged, err := frameMuxRequest(0xDEADBEEF, req)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(tagged[:4]) != 0xDEADBEEF {
		t.Fatalf("tag bytes = %x", tagged[:4])
	}
	if !bytes.Equal(tagged[4:], untagged(req)) {
		t.Fatalf("tagged frame body diverges from stream framing:\n%x\n%x", tagged[4:], untagged(req))
	}

	taggedReply, err := encodeMuxReplyFramed(42, 5*time.Millisecond, []byte("reply"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(taggedReply[:4]) != 42 {
		t.Fatalf("reply tag bytes = %x", taggedReply[:4])
	}
	if !bytes.Equal(taggedReply[4:], untagged(encodeReply(5*time.Millisecond, []byte("reply"), nil))) {
		t.Fatalf("tagged reply diverges from stream framing")
	}
}

func TestMuxFrameOversize(t *testing.T) {
	big := make([]byte, maxFrame+1)
	if _, err := frameMuxRequest(1, big); err == nil {
		t.Fatal("oversized mux request accepted")
	}
	if _, err := encodeMuxReplyFramed(1, 0, big, nil); err == nil {
		t.Fatal("oversized mux reply accepted")
	}
}

// TestMuxPreambleUnambiguous pins why a foreign length-prefixed stream
// can never be mistaken for a tagged one: the preamble, read as a length
// prefix, exceeds maxFrame, so no legal untagged frame starts with it.
func TestMuxPreambleUnambiguous(t *testing.T) {
	if v := binary.BigEndian.Uint32(muxPreamble[:]); v <= maxFrame {
		t.Fatalf("preamble %x decodes as legal frame length %d", muxPreamble, v)
	}
}

// ---- TCP multiplexing.

func TestTCPMuxConcurrentCallsOneConn(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*muxCore); !ok {
		t.Fatalf("tcp-net dialed %T, want multiplexed conn", conn)
	}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
			want := fmt.Sprintf("payload-%d", i)
			got, err := conn.Call(ctx, []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("call %d: got %q, want %q — replies crossed streams", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPMuxSlowCallDoesNotBlockFast is the head-of-line proof: a fast
// call issued while a slow one is in flight on the same connection
// returns long before the slow one completes.
func TestTCPMuxSlowCallDoesNotBlockFast(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	slow := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "slow" {
			<-slow
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := conn.Call(context.Background(), []byte("slow"))
		slowDone <- err
	}()
	// The fast call must complete while the slow handler is still parked.
	fastCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := conn.Call(fastCtx, []byte("fast")); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	close(slow)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestTCPMuxCostCharging pins the simulated costs on the multiplexed
// path: setup at dial, rtt plus the server's metered cost per call —
// the same charges the simulated "tcp" transport makes.
func TestTCPMuxCostCharging(t *testing.T) {
	n := newTestNetwork()
	model := n.Model()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", chargeHandler(3*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		conn, err := tr.Dial(ctx, ln.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, ok := conn.(*muxCore); !ok {
			return fmt.Errorf("dialed %T, want multiplexed conn", conn)
		}
		_, err = conn.Call(ctx, []byte("ping"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := model.TCPConnSetup + model.RTTTCP + 3*time.Millisecond
	if cost != want {
		t.Fatalf("mux cost = %v, want %v", cost, want)
	}
}

// TestTCPMuxOffLegacyFraming sends what a peer with multiplexing off
// would: a bare length-prefixed frame, no preamble. The listener must
// close the connection without answering and count it in
// mux_demux_errors_total.
func TestTCPMuxOffLegacyFraming(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	served := make(chan struct{}, 1)
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		served <- struct{}{}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	demux := metrics.Default().Counter(metrics.Labels("mux_demux_errors_total", "transport", "tcp-net"))
	before := demux.Value()

	c, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeFrame(c, []byte("legacy")); err != nil {
		t.Fatal(err)
	}
	// Closed means EOF, or a reset when the unread frame body was still
	// queued at close; either way no reply and no read timeout.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := c.Read(make([]byte, 64))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("legacy frame got (%d bytes, %v), want the connection closed", got, err)
	}
	if d := demux.Value() - before; d != 1 {
		t.Fatalf("mux_demux_errors_total advanced by %d, want 1", d)
	}
	select {
	case <-served:
		t.Fatal("handler ran for a legacy frame")
	default:
	}
}

// TestTCPMuxServerSubsliceOwnership is the recycling-hazard regression
// test: with concurrent dispatch, each request owns its pooled buffer
// until its reply is encoded, so a handler returning a subslice of its
// request must stay correct under many distinct in-flight payloads.
// Run under -race (the smoke mux tier does).
func TestTCPMuxServerSubsliceOwnership(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		return req[2:], nil // subslice of the pooled request buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("%02d:distinct-body-%d", i, i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want[2:] {
				errs <- fmt.Errorf("call %d: got %q, want %q — request buffer recycled under handler", i, got, want[2:])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxTeardownFailsAllPending kills the server socket with calls in
// flight and asserts correct teardown: every pending caller gets the
// same typed *ConnBrokenError (one ConnID), the error satisfies
// Unavailable, and later calls on the dead conn fail the same way.
func TestMuxTeardownFailsAllPending(t *testing.T) {
	const pending = 32
	// A raw TCP server that consumes the preamble plus `pending` tagged
	// requests, replies to none, then slams the connection.
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		c, err := raw.Accept()
		if err != nil {
			return
		}
		var preamble [4]byte
		if _, err := io.ReadFull(c, preamble[:]); err != nil {
			return
		}
		for i := 0; i < pending; i++ {
			var hdr [8]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
			if _, err := io.ReadFull(c, body); err != nil {
				return
			}
		}
		c.Close()
	}()

	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	conn, err := tr.Dial(context.Background(), raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	errCh := make(chan error, pending)
	var wg sync.WaitGroup
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := conn.Call(context.Background(), []byte("doomed"))
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)

	ids := make(map[uint64]int)
	count := 0
	for err := range errCh {
		count++
		var cb *ConnBrokenError
		if !errors.As(err, &cb) {
			t.Fatalf("pending call got %v, want *ConnBrokenError", err)
		}
		if !errors.Is(err, ErrConnBroken) {
			t.Fatalf("error %v does not match ErrConnBroken", err)
		}
		if !Unavailable(err) {
			t.Fatalf("broken-conn error %v not classed Unavailable", err)
		}
		ids[cb.ConnID]++
	}
	if count != pending {
		t.Fatalf("got %d errors, want %d", count, pending)
	}
	if len(ids) != 1 {
		t.Fatalf("pending calls saw %d distinct ConnIDs, want 1: %v", len(ids), ids)
	}
	// The conn stays broken: a later call fails immediately with the
	// same identity, without hanging.
	_, err = conn.Call(context.Background(), []byte("late"))
	var cb *ConnBrokenError
	if !errors.As(err, &cb) {
		t.Fatalf("call on broken conn got %v, want *ConnBrokenError", err)
	}
	for id := range ids {
		if cb.ConnID != id {
			t.Fatalf("late call ConnID %d, want %d", cb.ConnID, id)
		}
	}
}

// TestMuxUnknownTagCounted feeds the demux an unsolicited reply and
// asserts it is dropped (the real reply still lands) and counted in
// mux_demux_errors_total.
func TestMuxUnknownTagCounted(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		c, err := raw.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var preamble [4]byte
		if _, err := io.ReadFull(c, preamble[:]); err != nil {
			return
		}
		var hdr [8]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		tag := binary.BigEndian.Uint32(hdr[:4])
		// First a reply nobody asked for, then the real one.
		bogus, _ := encodeMuxReplyFramed(tag+12345, 0, []byte("ghost"), nil)
		real, _ := encodeMuxReplyFramed(tag, 0, body, nil)
		c.Write(bogus)
		c.Write(real)
	}()

	demux := metrics.Default().Counter(metrics.Labels("mux_demux_errors_total", "transport", "tcp-net"))
	before := demux.Value()

	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	conn, err := tr.Dial(context.Background(), raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := conn.Call(context.Background(), []byte("real"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "real" {
		t.Fatalf("echo = %q", got)
	}
	// The bogus reply may land before or after the real one; poll
	// briefly rather than racing the reader goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for demux.Value() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d := demux.Value() - before; d != 1 {
		t.Fatalf("mux_demux_errors_total advanced by %d, want 1", d)
	}
}

// TestMuxCallExpiry pins the per-call wait discipline on a shared conn:
// a call whose context deadline passes gets a CallExpiredError (timeout
// class, Unavailable) while the connection survives for other calls.
func TestMuxCallExpiry(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	block := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "block" {
			<-block
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer close(block)
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = conn.Call(ctx, []byte("block"))
	var ce *CallExpiredError
	if !errors.As(err, &ce) {
		t.Fatalf("expired call got %v, want *CallExpiredError", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline expiry %v must be a timeout-class net.Error", err)
	}
	if !Unavailable(err) {
		t.Fatalf("expiry %v not classed Unavailable", err)
	}
	// The connection is still healthy for other calls.
	got, err := conn.Call(context.Background(), []byte("after"))
	if err != nil {
		t.Fatalf("conn unusable after one call expired: %v", err)
	}
	if string(got) != "after" {
		t.Fatalf("echo = %q", got)
	}
}

// ---- UDP multiplexing.

func TestUDPMuxConcurrentCalls(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp-net")
	ln, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*muxCore); !ok {
		t.Fatalf("udp-net dialed %T, want multiplexed conn", conn)
	}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("dgram-%d", i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("call %d: got %q, want %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUDPMuxCostCharging(t *testing.T) {
	n := newTestNetwork()
	model := n.Model()
	tr, _ := n.Transport("udp-net")
	ln, err := tr.Listen("127.0.0.1:0", chargeHandler(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		conn, err := tr.Dial(ctx, ln.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = conn.Call(ctx, []byte("dg"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := model.RTTUDP + 2*time.Millisecond
	if cost != want {
		t.Fatalf("mux cost = %v, want %v", cost, want)
	}
}

// TestUDPMuxMixedFramingOneListener sends both framings to one
// listener: a tagged dialer is served, while an untagged datagram — what
// a peer with multiplexing off would send — is dropped unanswered and
// counted in mux_demux_errors_total.
func TestUDPMuxMixedFramingOneListener(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp-net")
	ln, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	t.Run("mux-dialer", func(t *testing.T) {
		conn, err := tr.Dial(context.Background(), ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 3; i++ {
			want := fmt.Sprintf("mux-dialer-%d", i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Fatalf("echo = %q, want %q", got, want)
			}
		}
	})
	t.Run("legacy-dialer", func(t *testing.T) {
		demux := metrics.Default().Counter(metrics.Labels("mux_demux_errors_total", "transport", "udp-net"))
		before := demux.Value()
		c, err := net.Dial("udp", ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("legacy-dialer-request")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for demux.Value() == before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if d := demux.Value() - before; d != 1 {
			t.Fatalf("mux_demux_errors_total advanced by %d, want 1", d)
		}
		c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if n, err := c.Read(make([]byte, 64)); err == nil {
			t.Fatalf("untagged datagram answered with %d bytes", n)
		}
	})
}

// TestOversizedReplyFailsFast: a reply too big for its frame (TCP) or
// datagram (UDP) comes back as a *RemoteError well before the caller's
// deadline, instead of vanishing and expiring the call as a loss.
func TestOversizedReplyFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{
		{"tcp-net", maxFrame + 1024},
		{"udp-net", 70 * 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNetwork()
			tr, _ := n.Transport(tc.name)
			ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
				return make([]byte, tc.size), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			conn, err := tr.Dial(context.Background(), ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			const wait = 5 * time.Second
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			start := time.Now()
			_, err = conn.Call(ctx, []byte("big"))
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("oversized reply got %v, want *RemoteError", err)
			}
			if el := time.Since(start); el > wait/2 {
				t.Fatalf("oversized reply took %v of a %v deadline", el, wait)
			}
			// The connection stays usable.
			if _, err := conn.Call(context.Background(), []byte("again")); !errors.As(err, &re) {
				t.Fatalf("second call got %v, want *RemoteError", err)
			}
		})
	}
}

// ---- Simulated transport mirror.

// TestSimMuxSemantics pins the sim mirror of the wire semantics:
// concurrent calls on one sim conn overlap in real time, and each call
// is charged the same simulated cost.
func TestSimMuxSemantics(t *testing.T) {
	const sleep = 40 * time.Millisecond
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	ln, err := tr.Listen("h:busy", func(ctx context.Context, req []byte) ([]byte, error) {
		time.Sleep(sleep) // real time: models handler occupancy
		simtime.Charge(ctx, 5*time.Millisecond)
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), "h:busy")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	meters := make([]*simtime.Meter, 2)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := simtime.NewMeter()
			meters[i] = m
			if _, err := conn.Call(simtime.WithMeter(context.Background(), m), []byte("x")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if meters[0].Elapsed() != meters[1].Elapsed() {
		t.Fatalf("per-call sim costs diverge: %v vs %v", meters[0].Elapsed(), meters[1].Elapsed())
	}
	if want := n.Model().RTTUDP + 5*time.Millisecond; meters[0].Elapsed() != want {
		t.Fatalf("sim charge = %v, want %v", meters[0].Elapsed(), want)
	}
	if wall := time.Since(start); wall >= 2*sleep {
		t.Fatalf("sim conn serialized calls: wall %v >= %v", wall, 2*sleep)
	}
}

// ---- Alloc benchmarks (bounds enforced by scripts/bench_alloc.sh).

func BenchmarkFrameMuxRequest(b *testing.B) {
	req := bytes.Repeat([]byte("q"), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := frameMuxRequest(uint32(i), req)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(out)
	}
}

func BenchmarkEncodeMuxReplyFramed(b *testing.B) {
	payload := bytes.Repeat([]byte("r"), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := encodeMuxReplyFramed(uint32(i), 5*time.Millisecond, payload, nil)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(out)
	}
}
