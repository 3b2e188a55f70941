package bind

import (
	"context"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// newReplyCacheEnv is newTestEnv with the server's reply caches enabled
// before the interfaces are bound.
func newReplyCacheEnv(t *testing.T) *testEnv {
	t.Helper()
	model := simtime.Default()
	net := transport.NewNetwork(model)
	s := NewServer("fiji", model)
	s.EnableReplyCache(nil, time.Hour)

	z, err := NewZone("cs.washington.edu", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRecords([]RR{
		A("fiji.cs.washington.edu", "udp!fiji", 600),
		A("june.cs.washington.edu", "udp!june", 600),
	}); err != nil {
		t.Fatal(err)
	}

	stdLn, err := s.ServeStd(net, "udp", "fiji:53")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stdLn.Close() })

	hrpcLn, hb, err := s.ServeHRPC(net, "fiji:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hrpcLn.Close() })

	c := hrpc.NewClient(net)
	t.Cleanup(func() { c.Close() })
	return &testEnv{net: net, model: model, server: s, stdAddr: "fiji:53", hrpcB: hb, client: c}
}

func stdLookupCost(t *testing.T, c *StdClient, name string) (time.Duration, []RR) {
	t.Helper()
	var rrs []RR
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		var err error
		rrs, err = c.Lookup(ctx, name, TypeA)
		return err
	})
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	return cost, rrs
}

// TestStdReplyCacheServesRepeatWithoutLookup proves a repeat standard query
// is answered from the stored encoded reply without consulting the zones:
// mutating a zone behind the server's back leaves the cached (old) answer
// in place until an explicit invalidation, and a hit replays exactly the
// miss's simulated cost.
func TestStdReplyCacheServesRepeatWithoutLookup(t *testing.T) {
	env := newReplyCacheEnv(t)
	c := NewStdClient(env.net, "udp", env.stdAddr)
	defer c.Close()

	stdLookupCost(t, c, "june.cs.washington.edu") // warm any connection state
	missCost, rrs := stdLookupCost(t, c, "fiji.cs.washington.edu")
	if len(rrs) != 1 || string(rrs[0].Data) != "udp!fiji" {
		t.Fatalf("first lookup = %v", rrs)
	}

	// Mutate the zone directly, bypassing the Server's invalidation hooks.
	z := env.server.Zone("cs.washington.edu")
	if err := z.Add(A("fiji.cs.washington.edu", "udp!fiji2", 600)); err != nil {
		t.Fatal(err)
	}

	hitCost, rrs := stdLookupCost(t, c, "fiji.cs.washington.edu")
	if len(rrs) != 1 || string(rrs[0].Data) != "udp!fiji" {
		t.Fatalf("repeat lookup went to the zones (got %v), want cached answer", rrs)
	}
	if hitCost != missCost {
		t.Fatalf("hit cost %v != miss cost %v", hitCost, missCost)
	}
	st := env.server.StdReplyCacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("std reply cache stats = %+v, want 1 hit 2 misses", st)
	}

	env.server.InvalidateReplies()
	_, rrs = stdLookupCost(t, c, "fiji.cs.washington.edu")
	if len(rrs) != 2 {
		t.Fatalf("post-invalidate lookup = %v, want both records", rrs)
	}
}

// TestStdReplyCacheInvalidatedByUpdate proves a dynamic update through the
// server drops cached standard replies.
func TestStdReplyCacheInvalidatedByUpdate(t *testing.T) {
	env := newReplyCacheEnv(t)
	c := NewStdClient(env.net, "udp", env.stdAddr)
	defer c.Close()

	_, rrs := stdLookupCost(t, c, "fiji.cs.washington.edu")
	if len(rrs) != 1 {
		t.Fatalf("first lookup = %v", rrs)
	}
	rcode, _, err := env.server.Update(context.Background(), "cs.washington.edu",
		UpdateAdd, A("fiji.cs.washington.edu", "udp!fiji-b", 600))
	if err != nil || rcode != RCodeOK {
		t.Fatalf("update: %s, %v", rcode, err)
	}
	_, rrs = stdLookupCost(t, c, "fiji.cs.washington.edu")
	if len(rrs) != 2 {
		t.Fatalf("lookup after update = %v, want the new record visible", rrs)
	}
}

// TestHRPCReplyCacheInvalidatedByUpdate exercises the HRPC interface's
// inherited reply cache: repeat queries are served from it (old answer
// survives an out-of-band zone mutation) and a dynamic update through the
// interface invalidates it.
func TestHRPCReplyCacheInvalidatedByUpdate(t *testing.T) {
	env := newReplyCacheEnv(t)
	hc := NewHRPCClient(env.client, env.hrpcB)

	rrs, err := hc.Lookup(context.Background(), "fiji.cs.washington.edu", TypeA)
	if err != nil || len(rrs) != 1 {
		t.Fatalf("first lookup = %v, %v", rrs, err)
	}

	// Out-of-band mutation: the cached reply must keep serving.
	z := env.server.Zone("cs.washington.edu")
	if err := z.Add(A("fiji.cs.washington.edu", "udp!fiji-oob", 600)); err != nil {
		t.Fatal(err)
	}
	rrs, err = hc.Lookup(context.Background(), "fiji.cs.washington.edu", TypeA)
	if err != nil || len(rrs) != 1 {
		t.Fatalf("repeat lookup = %v, %v; want cached single record", rrs, err)
	}

	// A dynamic update through the server invalidates every interface.
	if _, err := hc.Update(context.Background(), "cs.washington.edu",
		UpdateAdd, A("fiji.cs.washington.edu", "udp!fiji-c", 600)); err != nil {
		t.Fatal(err)
	}
	rrs, err = hc.Lookup(context.Background(), "fiji.cs.washington.edu", TypeA)
	if err != nil || len(rrs) != 3 {
		t.Fatalf("lookup after update = %v, %v; want all three records", rrs, err)
	}
}
