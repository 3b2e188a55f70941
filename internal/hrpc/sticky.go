package hrpc

import (
	"context"
	"fmt"

	"hns/internal/bufpool"
	"hns/internal/marshal"
	"hns/internal/transport"
)

// StickyConn is a dedicated client connection for subscription-style
// exchanges: calls that register state on a specific connection (bind's
// Subscribe) cannot ride the pooled round-robin paths, because the
// server's push frames flow back over exactly the connection that
// subscribed. A StickyConn performs single-attempt calls — no retries,
// no failover — and exposes the connection's push channel. The caller
// owns its lifecycle: one subscriber, one StickyConn, redial on death.
type StickyConn struct {
	c    *Client
	st   stub
	conn transport.Conn
}

// DialSticky opens a dedicated connection to b's endpoint. The caller
// must Close it; it never enters the client's pool.
func (c *Client) DialSticky(ctx context.Context, b Binding) (*StickyConn, error) {
	tr, st, err := c.bind(b)
	if err != nil {
		return nil, err
	}
	conn, err := tr.Dial(ctx, b.Addr)
	if err != nil {
		return nil, err
	}
	return &StickyConn{c: c, st: st, conn: conn}, nil
}

// SetPushHandler installs fn as the connection's push handler,
// reporting whether the connection can receive pushes at all (false on
// a wrapped conn such as a fault injector — the caller falls back to
// polling).
func (s *StickyConn) SetPushHandler(fn func(body []byte, err error)) bool {
	pr, ok := s.conn.(transport.PushReceiver)
	if ok {
		pr.SetPushHandler(fn)
	}
	return ok
}

// Call invokes p once over this connection — single attempt, no
// failover. Remote procedure errors surface as *RemoteFault, whatever
// their text: typed statuses (backpressure, budget expiry) are mapped
// only by Client.Call.
func (s *StickyConn) Call(ctx context.Context, p Procedure, args marshal.Value) (marshal.Value, error) {
	xid := s.c.xid.Add(1)
	frame, err := s.st.encodeCall(ctx, xid, p, args)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(frame)

	respFrame, err := s.conn.Call(ctx, frame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s to %s: %w", p.Name, s.st.b.Addr, err)
	}
	return s.st.decodeReply(ctx, xid, p, respFrame)
}

// Close releases the connection.
func (s *StickyConn) Close() error { return s.conn.Close() }
