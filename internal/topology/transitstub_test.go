package topology

import (
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

func TestTransitStubShape(t *testing.T) {
	want := transitStubRouters // 3 × 4 × (1 + 2·5) = 132
	if want != 132 {
		t.Fatalf("router count %d, want 132", want)
	}
	cfg := DefaultConfig(1) // Routers overridden by the hierarchy
	net, err := GenerateTransitStub(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	routers := 0
	for _, k := range net.Kind {
		if k == Router {
			routers++
		}
	}
	if routers != want {
		t.Fatalf("routers %d, want %d", routers, want)
	}
	if !graph.Connected(net.G) {
		t.Fatal("transit-stub graph disconnected")
	}
	if len(net.Clients) == 0 {
		t.Fatal("no clients")
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	a, err := GenerateTransitStub(DefaultConfig(1), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTransitStub(DefaultConfig(1), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() != b.NumLinks() || len(a.Clients) != len(b.Clients) {
		t.Fatal("same seed diverged")
	}
	for i := range a.Delay {
		if a.Delay[i] != b.Delay[i] {
			t.Fatal("delays diverged")
		}
	}
}

func TestTransitStubDelayClasses(t *testing.T) {
	// The realised delay of every link must respect U[d,2d] over its
	// class's nominal range: no link may exceed 2× the largest nominal
	// (inter-transit hi) and none may fall below the smallest nominal
	// (intra-stub lo).
	net, err := GenerateTransitStub(DefaultConfig(1), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range net.Delay {
		if net.Nominal[i] < intraStubDelay[0] && net.Nominal[i] != DefaultConfig(1).AccessDelay {
			t.Fatalf("link %d nominal %v below every class", i, net.Nominal[i])
		}
		if d > 2*interTransitDelay[1] {
			t.Fatalf("link %d delay %v beyond inter-transit bound", i, d)
		}
	}
}

func TestTransitStubWithSPTAndProtocols(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Tree = ShortestPathTree
	net, err := GenerateTransitStub(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(net.Clients) == 0 {
		t.Fatal("SPT transit-stub has no clients")
	}
}
