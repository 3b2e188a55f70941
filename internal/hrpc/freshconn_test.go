package hrpc

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// killableProxy fronts a real listener with a TCP forwarder that can be
// killed — its listener and every forwarded connection closed at once,
// the way a crashed host drops its sockets — and restarted on the same
// port. It counts the connections it accepts.
type killableProxy struct {
	t        *testing.T
	upstream string
	addr     string
	accepts  atomic.Int64

	mu    sync.Mutex
	ln    net.Listener
	conns []net.Conn
}

func newKillableProxy(t *testing.T, upstream string) *killableProxy {
	t.Helper()
	p := &killableProxy{t: t, upstream: upstream}
	p.start("127.0.0.1:0")
	t.Cleanup(p.kill)
	return p
}

// start listens on addr and forwards every accepted connection.
func (p *killableProxy) start(addr string) {
	p.t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		p.t.Fatal(err)
	}
	p.mu.Lock()
	p.ln, p.addr = ln, ln.Addr().String()
	p.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			up, err := net.Dial("tcp", p.upstream)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			if p.ln != ln { // killed between Accept and here
				p.mu.Unlock()
				c.Close()
				up.Close()
				return
			}
			p.conns = append(p.conns, c, up)
			p.mu.Unlock()
			go func() { _, _ = io.Copy(up, c); up.Close() }()
			go func() { _, _ = io.Copy(c, up); c.Close() }()
		}
	}()
}

// kill closes the listener first, so redials are refused, then every
// forwarded connection.
func (p *killableProxy) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// restart listens again on the port the proxy was killed on.
func (p *killableProxy) restart() { p.start(p.addr) }

var holdProc = Procedure{
	Name: "Hold", ID: 3,
	Args:  marshal.TStruct(),
	Ret:   marshal.TStruct(),
	Style: marshal.StyleGenerated,
}

// TestFreshConnOneSocketPerEndpoint pins the Raw-suite discipline on a
// real-socket transport: a FreshConn client opens one socket per
// endpoint, not one per call, yet every call is charged exactly what a
// per-call dial charged — one TCPConnSetup plus the call's own costs.
// A server killed and restarted on the same port costs one redial, still
// charged as one setup, and a kill with calls in flight costs the
// endpoint's breaker one failure, not one per call.
func TestFreshConnOneSocketPerEndpoint(t *testing.T) {
	n := transport.NewNetwork(simtime.Default())
	model := n.Model()
	const inflight = 8 // calls parked in Hold when the server is killed
	entered := make(chan struct{}, inflight)
	release := make(chan struct{})
	s := NewServer("meta", 7001, 1)
	s.Metrics = metrics.Discard
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	s.Register(holdProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		entered <- struct{}{}
		<-release
		return args, nil
	})
	ln, b, err := Serve(n, s, SuiteRawNet, "meta", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	px := newKillableProxy(t, b.Addr)
	b.Addr = px.addr

	// The reference: the same call over the simulated Raw suite, whose
	// FreshConn client really dials per call.
	simLn, simB, err := Serve(n, s, SuiteRaw, "meta", "meta:fresh")
	if err != nil {
		t.Fatal(err)
	}
	defer simLn.Close()
	ref := NewClient(n)
	ref.FreshConn = true
	ref.Metrics = metrics.Discard
	defer ref.Close()

	reg := metrics.NewRegistry()
	c := NewClient(n)
	c.FreshConn = true
	c.Metrics = reg
	defer c.Close()

	echo := func(cl *Client, b Binding) time.Duration {
		t.Helper()
		m := simtime.NewMeter()
		ctx, cancel := context.WithTimeout(simtime.WithMeter(context.Background(), m), 10*time.Second)
		defer cancel()
		ret, err := cl.Call(ctx, b, echoProc, marshal.StructV(marshal.Str("fiji")))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ret.Items[0].AsString(); got != "fiji" {
			t.Fatalf("echo = %q, want fiji", got)
		}
		return m.Elapsed()
	}
	want := echo(ref, simB)
	if want <= model.TCPConnSetup {
		t.Fatalf("reference call cost %v does not include the %v setup", want, model.TCPConnSetup)
	}

	const calls = 20
	var total time.Duration
	for i := 0; i < calls; i++ {
		total += echo(c, b)
	}
	if total != calls*want {
		t.Fatalf("%d calls charged %v, want %v (one setup plus the call's costs each)", calls, total, calls*want)
	}
	if a := px.accepts.Load(); a != 1 {
		t.Fatalf("listener accepted %d connections for %d calls, want 1", a, calls)
	}

	// Restart between calls: the pooled socket is stale, the call redials
	// once within its attempt and is still charged one setup.
	px.kill()
	px.restart()
	if got := echo(c, b); got != want {
		t.Fatalf("call after restart charged %v, want %v", got, want)
	}
	if a := px.accepts.Load(); a != 2 {
		t.Fatalf("accepts after restart = %d, want 2 (one redial)", a)
	}
	failures := reg.Counter(metrics.Labels("breaker_failures_total",
		"service", "hrpc", "endpoint", b.Addr))
	if f := failures.Value(); f != 0 {
		t.Fatalf("breaker failures after a redial that succeeded = %d, want 0", f)
	}

	// Kill with calls in flight: every caller fails on the same dead
	// socket (the redial is refused), and the breaker records one failure.
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, errs[i] = c.Call(ctx, b, holdProc, marshal.StructV())
		}(i)
	}
	for range inflight {
		<-entered
	}
	px.kill()
	wg.Wait()
	close(release)
	for i, err := range errs {
		if !errors.Is(err, transport.ErrConnBroken) {
			t.Fatalf("in-flight call %d: %v, want a broken-connection error", i, err)
		}
	}
	if f := failures.Value(); f != 1 {
		t.Fatalf("breaker failures after a kill with %d calls in flight = %d, want 1", inflight, f)
	}

	px.restart()
	if got := echo(c, b); got != want {
		t.Fatalf("call after kill and restart charged %v, want %v", got, want)
	}
	if a := px.accepts.Load(); a != 3 {
		t.Fatalf("accepts after kill and restart = %d, want 3 (one redial)", a)
	}
}

// TestFreshConnSimDialsPerCall guards the simulated discipline: over the
// simulated tcp transport and a fault injector, a FreshConn call still
// dials its own connection. A fault plan draws once per Dial and once
// per Call, so the seeded availability runs depend on this.
func TestFreshConnSimDialsPerCall(t *testing.T) {
	n := transport.NewNetwork(simtime.Default())
	model := n.Model()
	inner := mustTransport(t, n, "tcp")
	echo := func(ctx context.Context, req []byte) ([]byte, error) { return req, nil }
	ln, err := inner.Listen("fresh:1", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c := NewClient(n)
	c.FreshConn = true
	c.Metrics = metrics.Discard
	defer c.Close()
	call := func(tr transport.Transport) {
		t.Helper()
		m := simtime.NewMeter()
		ctx := simtime.WithMeter(context.Background(), m)
		if _, _, err := c.roundTrip(ctx, tr, "fresh:1", []byte("ping"), budgetState{}); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Elapsed(), model.TCPConnSetup+model.RTTTCP; got != want {
			t.Fatalf("call charged %v, want %v (setup + round trip)", got, want)
		}
	}

	ct := &countingTransport{Transport: inner}
	for i := 1; i <= 3; i++ {
		call(ct)
		if d := ct.dials.Load(); d != int64(i) {
			t.Fatalf("sim tcp: dials after %d calls = %d, want %d", i, d, i)
		}
	}

	chaos := transport.NewChaos(inner, "chaos-tcp", transport.NewPlan(1))
	for i := 1; i <= 3; i++ {
		call(chaos)
		if got := chaos.Calls(); got != 2*i {
			t.Fatalf("chaos: operations after %d calls = %d, want %d (one Dial + one Call each)", i, got, 2*i)
		}
	}
}

// TestReplicasForNoAlloc: resolving the replica set allocates nothing,
// configured or not, and the client's per-call series handles are
// resolved once.
func TestReplicasForNoAlloc(t *testing.T) {
	c := NewClient(transport.NewNetwork(simtime.Default()))
	c.SetReplicas("primary:1", "replica:1")
	reg := metrics.NewRegistry()
	mk := func(proc string) *metrics.Counter {
		return reg.Counter(metrics.Labels("hrpc_client_calls_total", "proc", proc))
	}
	c.callsByProc.get("Echo", mk)
	var solo, pair int
	allocs := testing.AllocsPerRun(200, func() {
		var one [1]string
		if set := c.replicasFor("solo:1", &one); set[0] == "solo:1" {
			solo = len(set)
		}
		pair = len(c.replicasFor("primary:1", &one))
		c.callsByProc.get("Echo", mk).Inc()
	})
	if solo != 1 || pair != 2 {
		t.Fatalf("replica sets: unconfigured %d endpoints, configured %d; want 1 and 2", solo, pair)
	}
	if allocs != 0 {
		t.Fatalf("replicasFor + cached series lookup: %v allocs/op, want 0", allocs)
	}
}
