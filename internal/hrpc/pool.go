package hrpc

// Per-endpoint connection pool.
//
// Every transport frames calls with tags (internal/transport mux.go), so
// one connection carries any number of concurrent calls: the client
// holds at most one connection per transport+address key. Idle
// connections are closed after IdleTimeout (or explicitly via
// Client.CloseIdle), so the per-endpoint map does not grow without bound
// across many distinct addresses. One dial per endpoint per client is
// also what every calibrated simulated cost assumes.

import (
	"context"
	"errors"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// PoolConfig sets the client's idle-connection policy. Set before first
// use.
type PoolConfig struct {
	// IdleTimeout retires connections that have carried no call for this
	// long. Expiry is checked lazily on the next acquire against the
	// same endpoint and eagerly by Client.CloseIdle. Non-positive means
	// idle connections are kept until Close.
	IdleTimeout time.Duration

	// Clock supplies the idle-accounting time base. Nil means real time.
	Clock simtime.Clock
}

// poolKey identifies an endpoint's pool: the transport name plus the
// address.
type poolKey struct{ transport, addr string }

// connPool is the per-endpoint state: the open connection, if any, plus
// the gauges that make its size and load observable.
type connPool struct {
	size     *metrics.Gauge // conn_pool_size{addr}
	inflight *metrics.Gauge // conn_inflight{addr}

	// conn is guarded by Client.mu (the pool map's own lock): pool
	// operations are brief bookkeeping — dials and calls happen outside
	// the lock. Nil while no connection is open.
	conn *pooledConn
}

// pooledConn is one pooled connection. inflight counts calls between
// acquire and release/discard; idleSince is meaningful only while
// inflight is 0.
type pooledConn struct {
	pool      *connPool
	conn      transport.Conn
	inflight  int
	idleSince time.Time
}

// clock resolves the pool's time base.
func (c *Client) clock() simtime.Clock {
	if c.Pool.Clock != nil {
		return c.Pool.Clock
	}
	return simtime.RealClock{}
}

// poolFor returns (creating if needed) the pool for key. Caller must
// hold c.mu.
func (c *Client) poolFor(key poolKey) *connPool {
	if c.pools == nil {
		c.pools = make(map[poolKey]*connPool)
	}
	p, ok := c.pools[key]
	if !ok {
		reg := c.registry()
		p = &connPool{
			size:     reg.Gauge(metrics.Labels("conn_pool_size", "addr", key.addr)),
			inflight: reg.Gauge(metrics.Labels("conn_inflight", "addr", key.addr)),
		}
		c.pools[key] = p
	}
	return p
}

// idleLocked reports whether p's connection has no call in flight and,
// when idle is positive, has sat unused for at least idle. Caller holds
// c.mu.
func (p *connPool) idleLocked(now time.Time, idle time.Duration) bool {
	e := p.conn
	return e != nil && e.inflight == 0 && (idle <= 0 || now.Sub(e.idleSince) >= idle)
}

// dropLocked removes p's connection from the pool and returns it for
// closing outside the lock (nil when there was none). Caller holds c.mu.
func (p *connPool) dropLocked() transport.Conn {
	e := p.conn
	if e == nil {
		return nil
	}
	p.conn = nil
	p.size.Set(0)
	return e.conn
}

// reserveLocked takes one in-flight reservation on e. Caller holds c.mu.
func (p *connPool) reserveLocked(e *pooledConn) {
	e.inflight++
	p.inflight.Add(1)
}

// acquire returns addr's connection holding one in-flight reservation,
// dialing when the endpoint has none open. The second result reports
// whether this acquire dialed (and so paid the transport's setup
// charge); it gates the one-redial recovery and the FreshConn setup
// charge in sendOnce.
func (c *Client) acquire(ctx context.Context, tr transport.Transport, addr string, key poolKey) (*pooledConn, bool, error) {
	now := c.clock().Now()
	var expired transport.Conn

	c.mu.Lock()
	pool := c.poolFor(key)
	if c.Pool.IdleTimeout > 0 && pool.idleLocked(now, c.Pool.IdleTimeout) {
		expired = pool.dropLocked()
	}
	if e := pool.conn; e != nil {
		pool.reserveLocked(e)
		c.mu.Unlock()
		return e, false, nil
	}
	c.mu.Unlock()
	if expired != nil {
		_ = expired.Close()
	}

	conn, err := tr.Dial(ctx, addr)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	// Look the pool up again: CloseIdle may have dropped the empty entry
	// while this dial was in progress.
	pool = c.poolFor(key)
	if prev := pool.conn; prev != nil {
		// Lost a dial race; ride the winner's connection and drop ours
		// (the dial still happened, and was charged).
		pool.reserveLocked(prev)
		c.mu.Unlock()
		_ = conn.Close()
		return prev, true, nil
	}
	e := &pooledConn{pool: pool, conn: conn}
	pool.conn = e
	pool.size.Set(1)
	pool.reserveLocked(e)
	c.mu.Unlock()
	return e, true, nil
}

// release returns an acquire's reservation after a successful (or
// conn-preserving) call.
func (c *Client) release(e *pooledConn) {
	c.mu.Lock()
	e.inflight--
	e.idleSince = c.clock().Now()
	e.pool.inflight.Add(-1)
	c.mu.Unlock()
}

// settle ends an acquire's reservation after a call: a broken
// connection leaves the pool; any other outcome (success, a remote
// error, an expired wait, a lost datagram) keeps it pooled.
func (c *Client) settle(e *pooledConn, err error) {
	if errors.Is(err, transport.ErrConnBroken) {
		c.discard(e)
	} else {
		c.release(e)
	}
}

// discard drops a failed connection: the reservation is returned and the
// connection is removed from the pool (idempotently — the first caller
// to notice the failure removes it, later ones only release) and closed.
func (c *Client) discard(e *pooledConn) {
	var dead transport.Conn
	c.mu.Lock()
	e.inflight--
	e.pool.inflight.Add(-1)
	if e.pool.conn == e {
		dead = e.pool.dropLocked()
	}
	c.mu.Unlock()
	if dead != nil {
		_ = dead.Close()
	}
}

// CloseIdle closes every pooled connection with no call in flight —
// those idle at least Pool.IdleTimeout when it is set, every idle one
// when it is not — and drops endpoint entries left without a
// connection. It reports how many connections it closed.
func (c *Client) CloseIdle() int {
	now := c.clock().Now()

	var victims []transport.Conn
	c.mu.Lock()
	for key, p := range c.pools {
		if p.idleLocked(now, c.Pool.IdleTimeout) {
			victims = append(victims, p.dropLocked())
		}
		if p.conn == nil {
			delete(c.pools, key)
		}
	}
	c.mu.Unlock()
	for _, conn := range victims {
		_ = conn.Close()
	}
	return len(victims)
}

// Close releases every pooled connection.
func (c *Client) Close() error {
	var first error
	c.mu.Lock()
	for key, p := range c.pools {
		if conn := p.dropLocked(); conn != nil {
			if err := conn.Close(); err != nil && first == nil {
				first = err
			}
		}
		delete(c.pools, key)
	}
	c.mu.Unlock()
	return first
}
