package hrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bufpool"
	"hns/internal/health"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Client places HRPC calls. It resolves a Binding's component names to
// implementations at call time — the "mix and match at bind time" property
// — and keeps one multiplexed transport connection per endpoint (see
// pool.go). A Client is safe for concurrent use.
type Client struct {
	net *transport.Network
	xid atomic.Uint32

	// FreshConn, when set, charges every call attempt one connection
	// setup. The Raw protocol suite of the era worked this way — one
	// request/response exchange per connection — and the HNS's interface
	// to its meta-BIND pays the resulting per-call setup cost. On the
	// real-socket transports (transport.DialCoster) the attempt rides the
	// pooled connection and the setup is charged without a real dial;
	// elsewhere every attempt dials and closes its own connection. Set
	// before first use.
	FreshConn bool

	// RetryBudget caps the total retransmission wait one call may
	// charge, in simulated time (the Sun RPC discipline: datagrams get
	// lost; the RPC layer times out and resends). The first wait is the
	// model's RetransmitTimeout and each further one doubles, up to 4×
	// that. When the next wait would exceed what remains, the call
	// charges the remainder and fails with ErrCallTimeout, so a blackout
	// costs exactly RetryBudget. Zero means a loss fails the call at
	// once. Remote faults — a live server saying no — are never retried.
	// Set before first use.
	RetryBudget time.Duration

	// Metrics receives the client's hrpc_client_* series. Nil means the
	// process-wide metrics.Default(); metrics.Discard disables them.
	// Set before first use.
	Metrics *metrics.Registry

	// PropagateDeadline, when set, carries the caller's remaining budget
	// with every call attempt (an explicit WithBudget value, else the
	// ctx deadline): deadline-aware servers shed work that arrives
	// already expired, and each retransmission carries what remains
	// after the charged backoff, not the original budget. Off by
	// default: the calibrated tables are computed without budget
	// propagation, and the prefix changes the wire bytes. Set before
	// first use.
	PropagateDeadline bool

	// Health parameterizes the per-endpoint circuit breakers. The zero
	// value uses the package defaults with real time. Set before first
	// use.
	Health health.Config

	// Pool sets the idle-connection policy (see pool.go). The zero
	// value keeps each endpoint's connection until Close. Set before
	// first use.
	Pool PoolConfig

	mu    sync.Mutex
	pools map[poolKey]*connPool

	// brokenSeen records, per endpoint, the newest broken-connection ID
	// already charged to its breaker: a multiplexed connection dying with
	// many calls in flight fails them all with one ConnBrokenError, and
	// the breaker must see one endpoint failure, not one per caller.
	brokenMu   sync.Mutex
	brokenSeen map[string]uint64

	repMu    sync.RWMutex
	replicas map[string][]string // primary addr → ordered replica set

	healthOnce sync.Once
	healthSet  *health.Set

	// Per-call instruments, resolved once per label value so the call
	// path does not format series names.
	callsByProc  seriesCache[*metrics.Counter]   // hrpc_client_calls_total{proc}
	callMSByAddr seriesCache[*metrics.Histogram] // hrpc_client_call_ms{addr}
}

// SetReplicas installs an ordered replica set for calls bound to
// primary: the primary is tried first, then each replica in order as
// breakers take endpoints out of rotation. The Binding itself is
// untouched (it stays a comparable value and its wire form is
// unchanged); replica routing is client configuration.
func (c *Client) SetReplicas(primary string, replicas ...string) {
	set := append([]string{primary}, replicas...)
	c.repMu.Lock()
	defer c.repMu.Unlock()
	if c.replicas == nil {
		c.replicas = make(map[string][]string)
	}
	c.replicas[primary] = set
}

// replicasFor resolves the replica set for addr. When none was
// configured it is the single-element set held in one, which the caller
// provides so the common case allocates nothing.
func (c *Client) replicasFor(addr string, one *[1]string) []string {
	c.repMu.RLock()
	set := c.replicas[addr]
	c.repMu.RUnlock()
	if set == nil {
		one[0] = addr
		return one[:]
	}
	return set
}

// breakers returns the client's breaker set, building it on first use
// from c.Health.
func (c *Client) breakers() *health.Set {
	c.healthOnce.Do(func() {
		cfg := c.Health
		if cfg.Metrics == nil {
			cfg.Metrics = c.registry()
		}
		if cfg.Service == "" {
			cfg.Service = "hrpc"
		}
		c.healthSet = health.NewSet(cfg)
	})
	return c.healthSet
}

// registry resolves the effective metrics registry.
func (c *Client) registry() *metrics.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return metrics.Default()
}

// seriesCache memoizes instruments by one label value, so a hot path
// formats and looks up each series name once rather than per call.
type seriesCache[T any] struct {
	mu sync.RWMutex
	m  map[string]T
}

// get returns the instrument for key, building it with mk on first use.
func (s *seriesCache[T]) get(key string, mk func(string) T) T {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return v
	}
	v = mk(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]T)
	}
	s.m[key] = v
	s.mu.Unlock()
	return v
}

// NewClient creates a client on the given network.
func NewClient(net *transport.Network) *Client {
	return &Client{net: net, pools: make(map[poolKey]*connPool)}
}

// Network exposes the client's network (for components that need the cost
// model or to dial directly).
func (c *Client) Network() *transport.Network { return c.net }

// RemoteFault is an application-level error returned by the remote
// procedure, as distinguished from a transport or protocol failure.
type RemoteFault struct {
	Proc string
	Msg  string
}

// Error implements error.
func (e *RemoteFault) Error() string { return fmt.Sprintf("hrpc: %s: %s", e.Proc, e.Msg) }

// xidMatcher lets control protocols with narrower transaction IDs define
// their own reply-matching rule (Courier truncates to 16 bits).
type xidMatcher interface {
	matchXID(call, reply uint32) bool
}

// Call invokes procedure p on the server identified by b, marshalling args
// and unmarshalling the result according to the binding's components. All
// simulated costs on the call path are charged to the meter in ctx.
func (c *Client) Call(ctx context.Context, b Binding, p Procedure, args marshal.Value) (_ marshal.Value, err error) {
	reg := c.registry()
	if reg.Enabled() {
		c.callsByProc.get(p.Name, func(proc string) *metrics.Counter {
			return reg.Counter(metrics.Labels("hrpc_client_calls_total", "proc", proc))
		}).Inc()
		meter := simtime.From(ctx)
		before := meter.Elapsed()
		defer func() {
			c.callMSByAddr.get(b.Addr, func(addr string) *metrics.Histogram {
				return reg.Histogram(metrics.Labels("hrpc_client_call_ms", "addr", addr))
			}).Observe(meter.Elapsed() - before)
			if err != nil {
				reg.Counter(metrics.Labels("hrpc_client_errors_total",
					"kind", errKind(err))).Inc()
			}
		}()
	}
	tr, st, err := c.bind(b)
	if err != nil {
		return marshal.Value{}, err
	}
	xid := c.xid.Add(1)
	frame, err := st.encodeCall(ctx, xid, p, args)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(frame)

	respFrame, ep, err := c.roundTrip(ctx, tr, b.Addr, frame, c.budgetState(ctx))
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s to %s: %w", p.Name, b.Addr, err)
	}
	ret, err := st.decodeReply(ctx, xid, p, respFrame)
	if err == nil {
		return ret, nil
	}
	var rf *RemoteFault
	if !errors.As(err, &rf) {
		return marshal.Value{}, err
	}
	// Typed statuses ride the error text under reserved prefixes. An
	// Overloaded reply is backpressure, not failure: record the server's
	// retry-after on the endpoint's breaker (the shared breaker table IS
	// the per-endpoint backoff state) so the next call routes around the
	// shedding endpoint without tripping it.
	if reason, retryAfter, ok := parseOverloadedErr(rf.Msg); ok {
		c.breakers().Breaker(ep).Backpressure(retryAfter)
		reg.Counter(metrics.Labels("hrpc_client_backpressure_total", "addr", ep)).Inc()
		return marshal.Value{}, &BackpressureError{Endpoint: ep, Reason: reason, RetryAfter: retryAfter}
	}
	if _, ok := parseExpiredErr(rf.Msg); ok {
		return marshal.Value{}, &BudgetExpiredError{Endpoint: ep, Proc: p.Name}
	}
	return marshal.Value{}, rf
}

// stub is a binding's client-side codec: the data representation and
// control protocol that encode a call frame and decode its reply.
// Client.Call and StickyConn.Call share it.
type stub struct {
	b     Binding
	model *simtime.Model
	ctl   ControlProtocol
	rep   marshal.DataRep
}

// bind resolves b's component names to the transport and codec its
// calls use.
func (c *Client) bind(b Binding) (transport.Transport, stub, error) {
	if err := b.Validate(); err != nil {
		return nil, stub{}, err
	}
	tr, err := c.net.Transport(b.Transport)
	if err != nil {
		return nil, stub{}, err
	}
	rep, err := marshal.Lookup(b.DataRep)
	if err != nil {
		return nil, stub{}, err
	}
	ctl, err := LookupControl(b.Control)
	if err != nil {
		return nil, stub{}, err
	}
	return tr, stub{b: b, model: c.net.Model(), ctl: ctl, rep: rep}, nil
}

// encodeCall does the client-side stub work — control bookkeeping plus
// argument marshalling — and returns the call frame. Both the marshalled
// arguments and the frame build in pooled buffers: the arguments are
// recycled as soon as the frame has copied them; the caller recycles
// the frame once the reply is fully decoded (a handler on the
// in-process transport may return bytes aliasing its request).
func (s stub) encodeCall(ctx context.Context, xid uint32, p Procedure, args marshal.Value) ([]byte, error) {
	simtime.Charge(ctx, s.ctl.Overhead(s.model))
	argBytes, err := s.rep.Append(bufpool.Get(64), args, p.Args)
	if err != nil {
		return nil, fmt.Errorf("hrpc: %s: marshal args: %w", p.Name, err)
	}
	marshal.ChargeValue(ctx, s.model, p.Style, args)
	frame, err := appendCall(s.ctl, bufpool.Get(48+len(argBytes)), CallHeader{
		XID: xid, Program: s.b.Program, Version: s.b.Version, Procedure: p.ID,
	}, argBytes)
	bufpool.Put(argBytes)
	return frame, err
}

// decodeReply matches a reply frame to the call's XID and unmarshals the
// result. A remote procedure error comes back unwrapped as a
// *RemoteFault.
func (s stub) decodeReply(ctx context.Context, xid uint32, p Procedure, respFrame []byte) (marshal.Value, error) {
	rh, resBytes, err := s.ctl.DecodeReply(respFrame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: %w", p.Name, err)
	}
	match := rh.XID == xid
	if m, ok := s.ctl.(xidMatcher); ok {
		match = m.matchXID(xid, rh.XID)
	}
	if !match {
		return marshal.Value{}, fmt.Errorf("%w: sent %d, got %d", ErrXIDMismatch, xid, rh.XID)
	}
	if rh.Err != "" {
		return marshal.Value{}, &RemoteFault{Proc: p.Name, Msg: rh.Err}
	}
	ret, err := marshal.Unmarshal(s.rep, resBytes, p.Ret)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: unmarshal result: %w", p.Name, err)
	}
	marshal.ChargeValue(ctx, s.model, p.Style, ret)
	return ret, nil
}

// ErrCallTimeout is matched (errors.Is) by the error roundTrip returns
// when a call exhausts its retry budget or no replica's breaker admits
// it — "backend unreachable", as distinguished from marshalling errors
// and remote faults. The concrete error is a *CallTimeout.
var ErrCallTimeout = errors.New("hrpc: call timed out")

// CallTimeout is the exhausted-retry error: every admitted endpoint
// failed (or none was admitted) within the call's budget. It wraps the
// last transport error, so errors.Is still sees the underlying cause
// (transport.ErrInjectedLoss, transport.ErrRefused, ...).
type CallTimeout struct {
	Addr     string // the binding's (primary) address
	Attempts int    // exchanges attempted before giving up
	LastErr  error  // last transport error; nil when breakers refused every endpoint
}

// Error implements error.
func (e *CallTimeout) Error() string {
	if e.LastErr == nil {
		return fmt.Sprintf("hrpc: call to %s timed out: no live endpoint", e.Addr)
	}
	return fmt.Sprintf("hrpc: call to %s timed out after %d attempts: %v", e.Addr, e.Attempts, e.LastErr)
}

// Unwrap exposes the last transport error to errors.Is/As.
func (e *CallTimeout) Unwrap() error { return e.LastErr }

// Is matches the ErrCallTimeout sentinel.
func (e *CallTimeout) Is(target error) bool { return target == ErrCallTimeout }

// Unavailable reports whether err means the backend could not be
// reached: the call timed out, no replica was live, or the transport
// failed outright. It is false for remote faults and remote errors — a
// live server answering, however unhelpfully, is not an availability
// failure. Serve-stale logic keys off this predicate.
func Unavailable(err error) bool {
	if err == nil {
		return false
	}
	var rf *RemoteFault
	if errors.As(err, &rf) {
		return false
	}
	if errors.Is(err, ErrCallTimeout) || errors.Is(err, health.ErrNoLiveEndpoint) {
		return true
	}
	return transport.Unavailable(err)
}

// errKind buckets a call error for hrpc_client_errors_total.
func errKind(err error) string {
	if errors.Is(err, ErrOverloaded) {
		return "overloaded"
	}
	if errors.Is(err, ErrBudgetExpired) {
		return "budget_expired"
	}
	var rf *RemoteFault
	if errors.As(err, &rf) {
		return "remote_fault"
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return "remote_error"
	}
	if errors.Is(err, ErrCallTimeout) {
		return "timeout"
	}
	return "transport"
}

// timeoutClass reports whether err looks like a silent loss — the
// caller sat out a retransmission timer to detect it — rather than a
// fast failure (refused, closed) the caller learned about immediately.
// Only timeout-class failures charge backoff to the caller's meter.
func timeoutClass(err error) bool {
	if errors.Is(err, transport.ErrInjectedLoss) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// budgetState tracks a propagated deadline across a call's attempts:
// the budget at Call entry plus the caller's meter position then, so
// each attempt can compute what remains after the sim-time already
// charged (backoffs, earlier marshalling).
type budgetState struct {
	active bool
	total  time.Duration
	meter  *simtime.Meter
	start  time.Duration // meter position at Call entry
}

// budgetState captures the propagated-deadline state for one call. An
// explicit WithBudget value (a gateway forwarding an inbound budget)
// wins over the ctx deadline; without either, nothing is propagated.
func (c *Client) budgetState(ctx context.Context) budgetState {
	if !c.PropagateDeadline {
		return budgetState{}
	}
	m := simtime.From(ctx)
	if d, ok := BudgetFrom(ctx); ok {
		return budgetState{active: true, total: d, meter: m, start: m.Elapsed()}
	}
	if dl, ok := ctx.Deadline(); ok {
		return budgetState{active: true, total: time.Until(dl), meter: m, start: m.Elapsed()}
	}
	return budgetState{}
}

// remaining reports the unspent budget: the entry budget minus the sim
// time this call has charged since entry (never negative).
func (b budgetState) remaining() time.Duration {
	d := b.total - (b.meter.Elapsed() - b.start)
	if d < 0 {
		return 0
	}
	return d
}

// roundTrip sends one frame to the first live endpoint of addr's replica
// set, retransmitting after transport-level losses and failing over as
// breakers take endpoints out of rotation, within c.RetryBudget.
// It reports the endpoint that produced the returned reply, so the
// caller can attribute reply-carried statuses (backpressure) to it.
//
// Cost discipline: a timeout-class failure charges the current backoff
// (the wait the caller sat through to detect the loss), capped so the
// total charged wait never exceeds the budget; fast failures (refused,
// open breaker) charge nothing. The schedule is deterministic (no
// jitter), so identical runs charge identical costs.
func (c *Client) roundTrip(ctx context.Context, tr transport.Transport, addr string, frame []byte, bs budgetState) ([]byte, string, error) {
	reg := c.registry()
	model := c.net.Model()
	var one [1]string
	replicas := c.replicasFor(addr, &one)
	hs := c.breakers()

	maxWait := 4 * model.RetransmitTimeout
	remaining := c.RetryBudget
	// A caller deadline already shorter than the retry budget clamps
	// it: scheduling a retry wait the caller will not live to see only
	// charges sim time for a reply nobody wants. The propagated budget
	// (when one is active) clamps the same way.
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < remaining {
			remaining = max(until, 0)
		}
	}
	if bs.active && bs.remaining() < remaining {
		remaining = bs.remaining()
	}

	var (
		lastErr  error
		attempts int
		tried    uint64                    // bitmask of replica indexes that failed this call
		wait     = model.RetransmitTimeout // next backoff
	)
	for {
		// Choose an endpoint: the first untried replica whose breaker
		// admits the call; failing that — only after a timeout-class
		// failure, where a retransmission can plausibly get through —
		// the first admitted replica again. Fast failures (refused) are
		// deterministic, so re-dialing the same dead endpoint within
		// one call is pointless.
		idx := -1
		for i, ep := range replicas {
			if i < 64 && tried&(1<<uint(i)) != 0 {
				continue
			}
			if ok, _ := hs.Breaker(ep).Allow(); ok {
				idx = i
				break
			}
		}
		if idx < 0 && timeoutClass(lastErr) {
			for i, ep := range replicas {
				if ok, _ := hs.Breaker(ep).Allow(); ok {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			// No breaker admits the call: fail fast, charging nothing —
			// the point of knowing an endpoint is dead is not waiting
			// on it.
			reg.Counter("hrpc_client_failfast_total").Inc()
			if lastErr == nil {
				lastErr = health.ErrNoLiveEndpoint
			}
			return nil, "", &CallTimeout{Addr: addr, Attempts: attempts, LastErr: lastErr}
		}
		ep := replicas[idx]

		// With a propagated deadline, each attempt carries what is left
		// of the budget NOW — after charged backoffs and failovers — not
		// the budget the call started with. The prefixed frame is a
		// plain allocation (not pooled): the in-process transport may
		// hand back a reply aliasing the request, so its lifetime must
		// outlive the reply decode.
		attemptFrame := frame
		if bs.active {
			pf := appendBudgetPrefix(make([]byte, 0, deadlinePrefixLen+len(frame)), bs.remaining())
			attemptFrame = append(pf, frame...)
		}
		resp, err := c.sendOnce(ctx, tr, ep, attemptFrame)
		attempts++
		if err == nil {
			hs.Breaker(ep).Success()
			if ep != addr {
				reg.Counter("hrpc_client_failovers_total").Inc()
			}
			return resp, ep, nil
		}
		// A RemoteError is a live server saying no; retransmitting
		// cannot help, and the endpoint is healthy.
		var re *transport.RemoteError
		if errors.As(err, &re) {
			hs.Breaker(ep).Success()
			return nil, ep, err
		}
		// A dead context: surface immediately, charging nothing — the
		// caller gave up, not the endpoint.
		if ctx.Err() != nil {
			return nil, ep, err
		}
		c.recordFailure(hs, ep, err)
		if idx < 64 {
			tried |= 1 << uint(idx)
		}
		lastErr = err

		if !timeoutClass(err) {
			continue // fast failure: fail over without waiting
		}
		// The caller sat out the retransmission timer to detect this
		// loss: charge it, bounded by the per-call budget.
		if wait > remaining {
			simtime.Charge(ctx, remaining)
			reg.Counter("hrpc_client_timeouts_total").Inc()
			return nil, "", &CallTimeout{Addr: addr, Attempts: attempts, LastErr: err}
		}
		simtime.Charge(ctx, wait)
		remaining -= wait
		reg.Counter("hrpc_client_retries_total").Inc()
		wait = min(2*wait, maxWait)
	}
}

// recordFailure charges one endpoint failure to ep's breaker,
// deduplicating broken-connection errors: when a multiplexed connection
// dies with many calls in flight, every caller surfaces the same
// *transport.ConnBrokenError, and the breaker must count one dead
// connection — not one failure per in-flight call (which would trip a
// healthy replica's breaker on a single socket reset).
func (c *Client) recordFailure(hs *health.Set, ep string, err error) {
	var cb *transport.ConnBrokenError
	if errors.As(err, &cb) {
		c.brokenMu.Lock()
		seen := c.brokenSeen[ep] == cb.ConnID
		if !seen {
			if c.brokenSeen == nil {
				c.brokenSeen = make(map[string]uint64)
			}
			c.brokenSeen[ep] = cb.ConnID
		}
		c.brokenMu.Unlock()
		if seen {
			return
		}
	}
	hs.Breaker(ep).Failure()
}

// sendOnce performs a single exchange over a pooled connection,
// redialing once if a pooled connection has gone stale.
//
// A FreshConn attempt pays exactly one connection setup. Over a
// transport.DialCoster it rides the pool like any other call: when the
// attempt dialed (first use, or the stale-connection redial), that
// dial's charge is the setup; otherwise DialCost charges it. Any other
// transport dials and closes a connection per attempt.
func (c *Client) sendOnce(ctx context.Context, tr transport.Transport, addr string, frame []byte) ([]byte, error) {
	var setup transport.DialCoster
	if c.FreshConn {
		dc, ok := tr.(transport.DialCoster)
		if !ok {
			conn, err := tr.Dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			defer conn.Close()
			return conn.Call(ctx, frame)
		}
		setup = dc
	}
	key := poolKey{tr.Name(), addr}
	e, dialed, err := c.acquire(ctx, tr, addr, key)
	if err != nil {
		return nil, err
	}
	resp, err := e.conn.Call(ctx, frame)
	// A connection dialed by this very call gets no second chance, and
	// neither does a failure that left the connection healthy.
	if err == nil || dialed || connHealthy(err) {
		c.settle(e, err)
		if setup != nil && !dialed {
			setup.DialCost(ctx)
		}
		return resp, err
	}
	// A pre-existing pooled connection may simply have gone stale (server
	// restarted since the last call): retire it and redial once within
	// the same attempt.
	c.discard(e)
	e2, dialed, err2 := c.acquire(ctx, tr, addr, key)
	if err2 != nil {
		return nil, err
	}
	if setup != nil && !dialed {
		setup.DialCost(ctx)
	}
	resp, err = e2.conn.Call(ctx, frame)
	c.settle(e2, err)
	return resp, err
}

// connHealthy reports whether a failed call left its connection
// healthy: a remote error came over a working exchange, and an expired
// call leaves a multiplexed connection usable (its reply, if it comes,
// is dropped by tag).
func connHealthy(err error) bool {
	var re *transport.RemoteError
	var ce *transport.CallExpiredError
	return errors.As(err, &re) || errors.As(err, &ce)
}
