package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		SendData:    "send-data",
		RecvData:    "recv-data",
		Detect:      "detect",
		SendRequest: "send-request",
		SendRepair:  "send-repair",
		Recover:     "recover",
		Drop:        "drop",
		Kind(200):   "kind(200)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1.5, Kind: Recover, Node: 3, Peer: 7, Seq: 12}
	s := e.String()
	for _, frag := range []string{"recover", "node=3", "peer=7", "seq=12"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("event string %q missing %q", s, frag)
		}
	}
	noPeer := Event{At: 1, Kind: Detect, Node: 2, Peer: -1, Seq: 5}
	if strings.Contains(noPeer.String(), "peer=") {
		t.Fatal("peer rendered for peerless event")
	}
}

func TestWriterStreamsLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{At: 1, Kind: Detect, Node: 2, Peer: -1, Seq: 3})
	w.Emit(Event{At: 2, Kind: Recover, Node: 2, Peer: 9, Seq: 3})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "boom" }

func TestWriterRecordsFirstError(t *testing.T) {
	w := NewWriter(failingWriter{})
	w.Emit(Event{Kind: Detect})
	if w.Err() == nil {
		t.Fatal("write error not recorded")
	}
	w.Emit(Event{Kind: Detect}) // must not panic, must keep first error
	if w.Err() == nil {
		t.Fatal("error lost")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Emit(Event{Kind: Detect, Seq: 1})
	c.Emit(Event{Kind: Detect, Seq: 2})
	c.Emit(Event{Kind: Recover, Seq: 2})
	if c.Count(Detect) != 2 || c.Count(Recover) != 1 || c.Count(Drop) != 0 {
		t.Fatalf("counts wrong: %d/%d", c.Count(Detect), c.Count(Recover))
	}
	if c.Total() != 3 || c.Last().Seq != 2 {
		t.Fatal("total/last wrong")
	}
}
