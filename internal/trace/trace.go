// Package trace records engine executions as structured event logs that
// can be serialized to JSON, reloaded, and compared — the artifact for
// sharing reproductions ("here is the exact execution, event by event")
// and for cross-checking engines beyond the single digest hash.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"synran/internal/sim"
)

// SchemaVersion is the current trace schema version. Version 1 was the
// implicit pre-versioning format (no version field); version 2 added the
// field and load-time validation; version 3 added send events. ReadJSON
// rejects traces whose version is missing, older or newer than this with
// a descriptive error.
const SchemaVersion = 3

// Event is one engine event. Kind selects which fields are meaningful:
// a round event carries the Alive, Sending and Ones counts of its
// pre-crash view; each round event is followed by one send event per
// broadcasting process (Proc, Payload), in process order; a crash event
// carries the victim and the receivers its message reached (Value); a
// decide event the process and its value; a halt event the process.
type Event struct {
	Kind    string `json:"kind"` // "round" | "send" | "crash" | "decide" | "halt"
	Round   int    `json:"round"`
	Proc    int    `json:"proc,omitempty"`
	Value   int    `json:"value,omitempty"`
	Payload int64  `json:"payload,omitempty"`
	Alive   int    `json:"alive,omitempty"`
	Sending int    `json:"sending,omitempty"`
	Ones    int    `json:"ones,omitempty"`
}

// Log is a recorded execution.
type Log struct {
	Version int     `json:"version"`
	N       int     `json:"n"`
	T       int     `json:"t"`
	Seed    uint64  `json:"seed"`
	Events  []Event `json:"events"`
}

// Recorder implements sim.Observer, building a Log.
type Recorder struct {
	log Log
}

var _ sim.Observer = (*Recorder)(nil)

// NewRecorder starts a log with the run's identity stamped in.
func NewRecorder(n, t int, seed uint64) *Recorder {
	return &Recorder{log: Log{Version: SchemaVersion, N: n, T: t, Seed: seed}}
}

// OnRound implements sim.Observer: the round event, then one send event
// per broadcasting process.
func (r *Recorder) OnRound(round int, v *sim.View) {
	at := len(r.log.Events)
	r.log.Events = append(r.log.Events, Event{Kind: "round", Round: round, Alive: v.AliveCount()})
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			p := v.Payload(i)
			r.log.Events[at].Sending++
			if p&1 == 1 {
				r.log.Events[at].Ones++
			}
			r.log.Events = append(r.log.Events, Event{Kind: "send", Round: round, Proc: i, Payload: p})
		}
	}
}

// OnCrash implements sim.Observer.
func (r *Recorder) OnCrash(round, victim, delivered int) {
	r.log.Events = append(r.log.Events, Event{
		Kind: "crash", Round: round, Proc: victim, Value: delivered,
	})
}

// OnDecide implements sim.Observer.
func (r *Recorder) OnDecide(round, p, value int) {
	r.log.Events = append(r.log.Events, Event{
		Kind: "decide", Round: round, Proc: p, Value: value,
	})
}

// OnHalt implements sim.Observer.
func (r *Recorder) OnHalt(round, p int) {
	r.log.Events = append(r.log.Events, Event{Kind: "halt", Round: round, Proc: p})
}

// Log returns the recorded log.
func (r *Recorder) Log() *Log { return &r.log }

// Clone returns a recorder holding an independent copy of the log so
// far, for a snapshot of the execution that continues on its own.
func (r *Recorder) Clone() *Recorder {
	c := &Recorder{log: r.log}
	c.log.Events = append([]Event(nil), r.log.Events...)
	return c
}

// WriteJSON serializes the log (one JSON document, indented).
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// ReadJSON parses and validates a log written by WriteJSON. Traces with
// a missing, stale, or future schema version — or malformed events — are
// rejected with an error that says what is wrong and what was expected.
func ReadJSON(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}

// Validate checks the schema version and every event's well-formedness.
func (l *Log) Validate() error {
	switch {
	case l.Version == 0:
		return fmt.Errorf("trace: missing schema version (pre-v%d trace? re-record it with this build)", SchemaVersion)
	case l.Version > SchemaVersion:
		return fmt.Errorf("trace: schema version %d is newer than this build's v%d — upgrade to read it", l.Version, SchemaVersion)
	case l.Version < SchemaVersion:
		return fmt.Errorf("trace: schema version %d is no longer supported (current v%d)", l.Version, SchemaVersion)
	}
	if l.N <= 0 {
		return fmt.Errorf("trace: header n=%d, want > 0", l.N)
	}
	if l.T < 0 || l.T > l.N {
		return fmt.Errorf("trace: header t=%d out of [0, %d]", l.T, l.N)
	}
	for i, ev := range l.Events {
		switch ev.Kind {
		case "round", "send", "crash", "decide", "halt":
		default:
			return fmt.Errorf("trace: event %d has unknown kind %q (want round|send|crash|decide|halt)", i, ev.Kind)
		}
		if ev.Round < 1 {
			return fmt.Errorf("trace: event %d (%s) has round %d, want >= 1", i, ev.Kind, ev.Round)
		}
		if ev.Kind != "round" && (ev.Proc < 0 || ev.Proc >= l.N) {
			return fmt.Errorf("trace: event %d (%s) names proc %d out of [0, %d)", i, ev.Kind, ev.Proc, l.N)
		}
	}
	return nil
}

// Diff compares two logs and returns a description of the first
// divergence, or "" when identical. Use it to verify that a replayed
// seed reproduces a shared trace exactly.
func Diff(a, b *Log) string {
	if a.Version != b.Version || a.N != b.N || a.T != b.T || a.Seed != b.Seed {
		return fmt.Sprintf("headers differ: (v%d n=%d t=%d seed=%d) vs (v%d n=%d t=%d seed=%d)",
			a.Version, a.N, a.T, a.Seed, b.Version, b.N, b.T, b.Seed)
	}
	switch i, av, bv := FirstDiff(a, b); {
	case i < 0:
		return ""
	case i == len(a.Events) || i == len(b.Events):
		return fmt.Sprintf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	default:
		return fmt.Sprintf("event %d differs: %s vs %s", i, av, bv)
	}
}

// FirstDiff returns the index of the first event where a and b
// disagree, with both events rendered, or -1 when the event lists are
// identical. When one list is a prefix of the other, the index is the
// shorter one's length and the renderings are the two event counts.
// Headers are not compared (Diff does that).
func FirstDiff(a, b *Log) (int, string, string) {
	n := min(len(a.Events), len(b.Events))
	for i := 0; i < n; i++ {
		if a.Events[i] != b.Events[i] {
			return i, fmt.Sprintf("%+v", a.Events[i]), fmt.Sprintf("%+v", b.Events[i])
		}
	}
	if len(a.Events) != len(b.Events) {
		return n, fmt.Sprintf("%d events", len(a.Events)), fmt.Sprintf("%d events", len(b.Events))
	}
	return -1, "", ""
}
