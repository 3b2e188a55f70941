package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"

	"hns/internal/bufpool"
	"hns/internal/simtime"
)

// udpTransport carries frames over real UDP datagrams: one datagram per
// request, one per reply, no retransmission — faithful to the Sun RPC
// discipline the prototype emulated (callers retry at the RPC layer if they
// care). Payloads are limited to what fits a datagram.
//
// Every request datagram opens with the mux preamble and a 4-byte stream
// tag, so one socket carries many in-flight calls; the reply echoes the
// tag (no preamble). The listener drops, and counts, any datagram that
// does not open with the preamble.
type udpTransport struct {
	model *simtime.Model
	obs   wireObs
}

func newUDPTransport(model *simtime.Model) *udpTransport {
	return &udpTransport{model: model, obs: newWireObs("udp-net")}
}

// Name implements Transport.
func (t *udpTransport) Name() string { return "udp-net" }

// maxDatagram bounds request/reply payloads on the real UDP transport.
const maxDatagram = 60 * 1024

// Dial implements Transport.
func (t *udpTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return newUDPMux(t.model, t.obs, c), nil
}

// DialCost implements DialCoster. A datagram socket has no setup
// exchange, so Dial charges nothing and neither does this.
func (t *udpTransport) DialCost(context.Context) {}

// newUDPMux wraps a connected UDP socket in the tagged-frame client
// core. Each request datagram is [preamble][4-byte tag][payload]; the
// listener echoes the tag ahead of the reply envelope (no preamble —
// the client knows its own framing). A malformed reply datagram is
// skipped (and counted) rather than killing the socket — datagram
// corruption is per-packet, unlike a broken stream.
func newUDPMux(model *simtime.Model, obs wireObs, c *net.UDPConn) *muxCore {
	return newMuxCore(obs, model.RTTUDP,
		func(tag uint32, req []byte) error {
			if len(req) > maxDatagram-8 {
				return errors.New("transport: request exceeds datagram limit")
			}
			buf := bufpool.Get(8 + len(req))
			buf = append(buf, muxPreamble[:]...)
			buf = binary.BigEndian.AppendUint32(buf, tag)
			buf = append(buf, req...)
			_, err := c.Write(buf)
			bufpool.Put(buf)
			return err
		},
		func() (uint32, []byte, error) {
			buf := bufpool.Get(maxDatagram)[:maxDatagram]
			n, err := c.Read(buf)
			if err != nil {
				bufpool.Put(buf)
				return 0, nil, err
			}
			if n < 4 {
				bufpool.Put(buf)
				return 0, nil, errSkipFrame
			}
			tag := binary.BigEndian.Uint32(buf[:4])
			// Shift the body to the buffer's start instead of subslicing:
			// Put files by capacity, and a subslice would demote this 64 KiB
			// buffer into a smaller pool class, defeating reuse.
			copy(buf, buf[4:n])
			return tag, buf[:n-4], nil
		},
		c.Close,
	)
}

// Listen implements Transport.
func (t *udpTransport) Listen(addr string, h Handler) (Listener, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	l := &udpListener{pc: pc, h: h, obs: t.obs, done: make(chan struct{})}
	go l.serveLoop()
	return l, nil
}

type udpListener struct {
	pc   *net.UDPConn
	h    Handler
	obs  wireObs
	done chan struct{}
	once sync.Once
}

// Addr implements Listener.
func (l *udpListener) Addr() string { return l.pc.LocalAddr().String() }

// Close implements Listener.
func (l *udpListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.pc.Close()
}

func (l *udpListener) serveLoop() {
	for {
		// Each datagram reads into its own pooled buffer, which also drops
		// the old copy-before-goroutine step: the handler owns the buffer
		// until its reply is encoded, then it goes back to the pool.
		buf := bufpool.Get(maxDatagram)[:maxDatagram]
		n, peer, err := l.pc.ReadFromUDP(buf)
		if err != nil {
			bufpool.Put(buf)
			select {
			case <-l.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if n < 8 || [4]byte(buf[:4]) != muxPreamble {
			l.obs.demux() // foreign framing: no tag to answer under
			bufpool.Put(buf)
			continue
		}
		go func(req []byte, n int, peer *net.UDPAddr) {
			tag := binary.BigEndian.Uint32(req[4:8])
			meter := simtime.NewMeter()
			resp, herr := l.h(WithPeer(simtime.WithMeter(context.Background(), meter), peer.String()), req[8:n])
			body := appendReply(binary.BigEndian.AppendUint32(bufpool.Get(13+len(resp)), tag),
				meter.Elapsed(), resp, herr)
			if len(body) > maxDatagram {
				body = appendReply(body[:4], meter.Elapsed(), nil, errReplyTooLarge)
			}
			bufpool.Put(req) // after encoding: resp may alias the request
			_, _ = l.pc.WriteToUDP(body, peer)
			bufpool.Put(body)
		}(buf, n, peer)
	}
}
