package hrpc

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// lookupProc is a read-only procedure marked cacheable, standing in for
// the BIND query path.
var lookupProc = Procedure{
	Name: "Lookup", ID: 3,
	Args:      marshal.TStruct(marshal.TString),
	Ret:       marshal.TStruct(marshal.TString),
	Style:     marshal.StyleGenerated,
	Cacheable: true,
}

// newCountingServer serves lookupProc (cacheable) and echoProc (not),
// counting handler invocations.
func newCountingServer(t *testing.T, net *transport.Network, ttl time.Duration) (Binding, *atomic.Int64, *Server, func()) {
	t.Helper()
	s := NewServer("count@fiji", 7002, 1)
	s.Metrics = metrics.Discard
	var calls atomic.Int64
	handler := func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		calls.Add(1)
		simtime.Charge(ctx, 3*time.Millisecond) // deterministic handler work
		v, err := args.Field(0)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(v), nil
	}
	s.Register(lookupProc, handler)
	s.Register(echoProc, handler)
	s.EnableReplyCache(nil, ttl)
	ln, b, err := Serve(net, s, SuiteRaw, "fiji", "fiji:count")
	if err != nil {
		t.Fatal(err)
	}
	return b, &calls, s, func() { ln.Close() }
}

func callCost(t *testing.T, c *Client, b Binding, p Procedure, arg string) (time.Duration, string) {
	t.Helper()
	m := simtime.NewMeter()
	ctx := simtime.WithMeter(context.Background(), m)
	ret, err := c.Call(ctx, b, p, marshal.StructV(marshal.Str(arg)))
	if err != nil {
		t.Fatalf("call %s(%q): %v", p.Name, arg, err)
	}
	got, err := ret.Items[0].AsString()
	if err != nil {
		t.Fatal(err)
	}
	return m.Elapsed(), got
}

func TestReplyCacheSkipsHandler(t *testing.T) {
	net := transport.NewNetwork(simtime.Default())
	b, calls, s, stop := newCountingServer(t, net, time.Hour)
	defer stop()
	c := NewClient(net)
	defer c.Close()

	// Warm the connection so both measured calls ride the cached conn
	// (the first dial charges TCPConnSetup to whichever call makes it).
	callCost(t, c, b, lookupProc, "warmup")

	missCost, got := callCost(t, c, b, lookupProc, "fiji")
	if got != "fiji" || calls.Load() != 2 {
		t.Fatalf("first call: got %q, %d handler invocations", got, calls.Load())
	}
	hitCost, got := callCost(t, c, b, lookupProc, "fiji")
	if got != "fiji" {
		t.Fatalf("cached call returned %q", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("repeat request invoked the handler (%d calls)", calls.Load())
	}
	// Cost replay: a hit charges exactly what the original exchange did,
	// so enabling the cache cannot perturb the calibrated tables.
	if hitCost != missCost {
		t.Fatalf("hit cost %v != miss cost %v", hitCost, missCost)
	}
	st := s.ReplyCacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit 2 misses", st)
	}
}

func TestReplyCacheDistinctArgs(t *testing.T) {
	net := transport.NewNetwork(simtime.Default())
	b, calls, _, stop := newCountingServer(t, net, time.Hour)
	defer stop()
	c := NewClient(net)
	defer c.Close()

	_, g1 := callCost(t, c, b, lookupProc, "fiji")
	_, g2 := callCost(t, c, b, lookupProc, "june")
	_, g3 := callCost(t, c, b, lookupProc, "june")
	if g1 != "fiji" || g2 != "june" || g3 != "june" {
		t.Fatalf("answers: %q %q %q", g1, g2, g3)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (one per distinct request)", calls.Load())
	}
}

func TestReplyCacheUncacheableProc(t *testing.T) {
	net := transport.NewNetwork(simtime.Default())
	b, calls, _, stop := newCountingServer(t, net, time.Hour)
	defer stop()
	c := NewClient(net)
	defer c.Close()

	callCost(t, c, b, echoProc, "x")
	callCost(t, c, b, echoProc, "x")
	if calls.Load() != 2 {
		t.Fatalf("uncacheable procedure was cached (%d handler calls)", calls.Load())
	}
}

func TestReplyCacheInvalidate(t *testing.T) {
	net := transport.NewNetwork(simtime.Default())
	b, calls, s, stop := newCountingServer(t, net, time.Hour)
	defer stop()
	c := NewClient(net)
	defer c.Close()

	callCost(t, c, b, lookupProc, "fiji")
	s.InvalidateReplies()
	callCost(t, c, b, lookupProc, "fiji")
	if calls.Load() != 2 {
		t.Fatalf("invalidated entry still served (%d handler calls)", calls.Load())
	}
}

func TestReplyCacheTTLExpiry(t *testing.T) {
	clock := simtime.NewFakeClock(time.Unix(0, 0))
	net := transport.NewNetwork(simtime.Default())
	s := NewServer("ttl@fiji", 7003, 1)
	s.Metrics = metrics.Discard
	var calls atomic.Int64
	s.Register(lookupProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		calls.Add(1)
		v, _ := args.Field(0)
		return marshal.StructV(v), nil
	})
	s.EnableReplyCache(clock, time.Minute)
	ln, b, err := Serve(net, s, SuiteRaw, "fiji", "fiji:ttl")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewClient(net)
	defer c.Close()

	callCost(t, c, b, lookupProc, "fiji")
	callCost(t, c, b, lookupProc, "fiji")
	if calls.Load() != 1 {
		t.Fatalf("warm repeat hit the handler (%d)", calls.Load())
	}
	clock.Advance(2 * time.Minute)
	callCost(t, c, b, lookupProc, "fiji")
	if calls.Load() != 2 {
		t.Fatalf("expired entry still served (%d handler calls)", calls.Load())
	}
}

// TestAppendersMatchEncoders pins the pooled append path of every built-in
// control protocol to its allocating encoder, for both reply statuses and
// with recycled (dirty) destination buffers.
func TestAppendersMatchEncoders(t *testing.T) {
	h := CallHeader{XID: 0xdeadbeef, Program: 100017, Version: 1, Procedure: 4}
	args := []byte("args bytes \x00\xff")
	replies := []ReplyHeader{
		{XID: 0xdeadbeef},
		{XID: 7, Err: "no such zone"},
	}
	for _, name := range []string{"raw", "sunrpc", "courier"} {
		ctl, err := LookupControl(name)
		if err != nil {
			t.Fatal(err)
		}
		ca, ok := ctl.(CallAppender)
		if !ok {
			t.Fatalf("%s: built-in protocol lacks CallAppender", name)
		}
		ra, ok := ctl.(ReplyAppender)
		if !ok {
			t.Fatalf("%s: built-in protocol lacks ReplyAppender", name)
		}
		want, err := ctl.EncodeCall(h, args)
		if err != nil {
			t.Fatal(err)
		}
		dirty := append(make([]byte, 0, 128), 0xaa, 0xbb)
		got, err := ca.AppendCall(dirty[:0], h, args)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendCall differs from EncodeCall", name)
		}
		for _, rh := range replies {
			want, err := ctl.EncodeReply(rh, []byte("results"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ra.AppendReply(dirty[:0], rh, []byte("results"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: AppendReply (err=%q) differs from EncodeReply", name, rh.Err)
			}
		}
	}
}
