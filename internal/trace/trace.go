// Package trace provides structured event tracing for simulation runs: a
// Tracer receives typed events (packet deliveries, loss detections,
// recoveries, timer fires) and renders them to an io.Writer, or counts them
// for assertions in tests. Tracing is strictly optional — the session emits
// events only when a Tracer is attached, and the nil Tracer costs nothing.
package trace

import (
	"fmt"
	"io"
	"sync"
)

// Kind classifies trace events.
type Kind uint8

const (
	// SendData is an original multicast transmission from the source.
	SendData Kind = iota
	// RecvData is a data delivery at a client.
	RecvData
	// Detect is a loss detection at a client.
	Detect
	// SendRequest is a recovery request transmission.
	SendRequest
	// SendRepair is a repair transmission.
	SendRepair
	// Recover is a completed recovery at a client.
	Recover
	// Drop is a packet killed by link loss.
	Drop
	numKinds
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case SendData:
		return "send-data"
	case RecvData:
		return "recv-data"
	case Detect:
		return "detect"
	case SendRequest:
		return "send-request"
	case SendRepair:
		return "send-repair"
	case Recover:
		return "recover"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At   float64 // simulation time, ms
	Kind Kind
	Node int32 // primary node (receiver/detector/sender)
	Peer int32 // secondary node (source of a repair, target of a request); -1 if n/a
	Seq  int   // data sequence number
}

// String renders the event on one line.
func (e Event) String() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("%10.3f  %-12s node=%d peer=%d seq=%d",
			e.At, e.Kind, e.Node, e.Peer, e.Seq)
	}
	return fmt.Sprintf("%10.3f  %-12s node=%d seq=%d", e.At, e.Kind, e.Node, e.Seq)
}

// Tracer consumes events.
type Tracer interface {
	Emit(Event)
}

// Writer streams events as text lines to an io.Writer.
type Writer struct {
	W io.Writer

	mu  sync.Mutex
	err error
}

// NewWriter returns a Tracer writing one line per event to w.
func NewWriter(w io.Writer) *Writer { return &Writer{W: w} }

// Emit implements Tracer.
func (t *Writer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintln(t.W, e.String())
}

// Err returns the first write error, if any.
func (t *Writer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Counter tallies events by kind — the cheap Tracer for tests.
type Counter struct {
	counts [numKinds]int64
	last   Event
	n      int64
}

// Emit implements Tracer.
func (c *Counter) Emit(e Event) {
	if int(e.Kind) < len(c.counts) {
		c.counts[e.Kind]++
	}
	c.last = e
	c.n++
}

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) int64 { return c.counts[k] }

// Total returns the overall event count.
func (c *Counter) Total() int64 { return c.n }

// Last returns the most recent event.
func (c *Counter) Last() Event { return c.last }
