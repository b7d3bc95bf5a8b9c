package async

import (
	"math"
	"slices"
)

// Schedulers: the asynchronous adversaries. FIFO is the benign network;
// RandomSched models a noisy one; Splitter is the adaptive
// full-information adversary that keeps report quorums balanced — the
// FLP-style strategy that loops deterministic protocols forever and
// stretches randomized ones.

// FIFO delivers the oldest pending message.
type FIFO struct{}

var _ Scheduler = FIFO{}

// Name implements Scheduler.
func (FIFO) Name() string { return "fifo" }

// Next implements Scheduler.
func (FIFO) Next(v *View) Action {
	return Action{Victim: -1, Deliver: 0}
}

// RandomSched delivers a uniformly random pending message and, with
// probability CrashProb per step, crashes a random live process while
// budget remains.
type RandomSched struct {
	CrashProb float64
}

var _ Scheduler = (*RandomSched)(nil)

// Name implements Scheduler.
func (s *RandomSched) Name() string { return "random" }

// Next implements Scheduler.
func (s *RandomSched) Next(v *View) Action {
	act := Action{Victim: -1, Deliver: v.Rng.Intn(v.NumPending())}
	if s.CrashProb > 0 && v.Budget > 0 && v.Rng.Float64() < s.CrashProb {
		var live []int
		for i := 0; i < v.N; i++ {
			if v.IsAlive(i) {
				live = append(live, i)
			}
		}
		if len(live) > 0 {
			act.Victim = live[v.Rng.Intn(len(live))]
		}
	}
	return act
}

// Splitter is the adaptive full-information scheduler: it chooses, at
// every step, the pending message whose delivery keeps the receiver's
// report tally as balanced as possible, prefers ⊥ proposals over value
// proposals, and starves DECIDE gossip for as long as anything else is
// deliverable. Against the deterministic CoinParity variant of Ben-Or
// it recreates the FLP bivalence loop; against the randomized variant
// it maximizes the number of coin-flip phases.
//
// A message's score depends only on its receiver, its payload and the
// tally, so the Splitter indexes the pending set by (To, Payload): every
// message of a group scores the same, and the pick is the head of the
// group with the least (score, head Seq), kept at the top of a heap. A
// delivery moves at most two groups' scores (the receiver's two report
// groups for the delivered phase), so a step costs O(log groups) plus
// the messages it adds, not O(pending).
type Splitter struct {
	// seen[r][p] counts the REPORT values 0 and 1 already delivered to
	// receiver r in the receiver's phase bucket p (approximated by the
	// message's phase number, which Pack keeps non-negative).
	seen [][][2]int

	// The pending index: the non-empty groups by key and in heap order,
	// plus emptied groups kept for reuse.
	groups map[groupKey]*group
	heap   []slot // min-heap by (score, head Seq): the top is the pick
	free   []*group
	// What the index was last synced to: the engine's view, and how many
	// messages the index holds, all with Seq <= last.
	view  *View
	count int
	last  int
}

// groupKey names the messages the Splitter cannot tell apart.
type groupKey struct {
	to      int
	payload int64
}

// group is one (receiver, payload) class of pending messages.
type group struct {
	key  groupKey
	seqs []int // Seqs in ascending order; seqs[head:] are pending
	head int
	pos  int // index of the group's slot in the heap
}

// slot is one heap entry: a group with its (score, head Seq) copied in,
// so heap order is decided without following the pointer.
type slot struct {
	score, seq int
	g          *group
}

func (a slot) less(b slot) bool {
	return a.score < b.score || a.score == b.score && a.seq < b.seq
}

var _ Scheduler = (*Splitter)(nil)
var _ DeliveryObserver = (*Splitter)(nil)

// NewSplitter builds the adaptive scheduler.
func NewSplitter() *Splitter { return &Splitter{} }

// Name implements Scheduler.
func (s *Splitter) Name() string { return "splitter" }

// Next implements Scheduler: it delivers the pending message with the
// least score, the oldest (least Seq) among equals. It reads the view
// and changes only the pending index, never the tally: the seen tally is
// updated by Delivered, with the message the engine actually delivered —
// recording the chosen message here instead would drift whenever a
// same-step crash recompacts pending (the Splitter-tally bug the
// conformance harness flushed out; TestSplitterTallyMatchesDeliveries
// pins the fix).
func (s *Splitter) Next(v *View) Action {
	s.sync(v)
	if len(s.heap) == 0 {
		return Action{Victim: -1, Deliver: 0}
	}
	return Action{Victim: -1, Deliver: findSeq(v.pending, s.heap[0].seq)}
}

// sync brings the index up to v, reading the engine's pending slice
// behind it directly. Between two steps of one execution the engine
// only appends messages with fresh Seqs and removes the one it reports
// to Delivered, so the index is current once it adds the tail of the
// pending set past its last Seq. Anything else the engine does removes
// messages up to last without a report — a crash or halt compaction, a
// delivery the Splitter was not told of — so it shows as a different
// count of them; that, or another execution's view, rebuilds the index
// from v.
func (s *Splitter) sync(v *View) {
	p, c := v.pending, s.count
	if v != s.view || c > len(p) ||
		c > 0 && p[c-1].Seq > s.last || c < len(p) && p[c].Seq <= s.last {
		s.reset(v)
		c = 0
	}
	for _, m := range p[c:] {
		s.add(m)
	}
	if len(p) > 0 {
		s.count, s.last = len(p), p[len(p)-1].Seq
	}
}

// reset empties the index and anchors it to v.
func (s *Splitter) reset(v *View) {
	for _, e := range s.heap {
		s.free = append(s.free, e.g)
	}
	s.heap = s.heap[:0]
	if s.groups == nil {
		s.groups = make(map[groupKey]*group)
	}
	clear(s.groups)
	s.view, s.count, s.last = v, 0, math.MinInt
}

// add indexes one pending message, newer than every indexed one.
func (s *Splitter) add(m Message) {
	k := groupKey{m.To, m.Payload}
	if g := s.groups[k]; g != nil {
		g.seqs = append(g.seqs, m.Seq)
		return
	}
	var g *group
	if n := len(s.free); n > 0 {
		g, s.free = s.free[n-1], s.free[:n-1]
	} else {
		g = new(group)
	}
	g.key, g.seqs, g.head = k, append(g.seqs[:0], m.Seq), 0
	s.groups[k] = g
	s.heap = append(s.heap, slot{s.score(k), m.Seq, g})
	s.up(len(s.heap) - 1)
}

// Delivered implements DeliveryObserver: the tally counts true
// deliveries only, and the index drops the delivered message and
// rescores the groups whose tally moved.
func (s *Splitter) Delivered(m Message) {
	s.drop(m)
	s.record(m)
}

// drop removes a delivered message from the index: the head of its
// group when the engine delivered the Splitter's pick, any member when a
// scheduler wrapping the Splitter overrode it. A message the index does
// not hold changes nothing here; the next sync sees whether it mattered.
func (s *Splitter) drop(m Message) {
	g := s.groups[groupKey{m.To, m.Payload}]
	if g == nil {
		return
	}
	i, ok := slices.BinarySearch(g.seqs[g.head:], m.Seq)
	if !ok {
		return
	}
	s.count--
	if i > 0 {
		g.seqs = slices.Delete(g.seqs, g.head+i, g.head+i+1)
		return
	}
	if g.head++; g.head < len(g.seqs) {
		s.heap[g.pos].seq = g.seqs[g.head]
		s.down(g.pos)
		return
	}
	// The group is empty: its slot takes the heap's last one.
	at, last := g.pos, len(s.heap)-1
	s.heap[at] = s.heap[last]
	s.heap = s.heap[:last]
	if at < last {
		s.fix(at)
	}
	delete(s.groups, g.key)
	s.free = append(s.free, g)
}

// RecordedReports returns the total number of report deliveries in the
// seen tally — the quantity the conformance harness cross-checks against
// the engine's actual report deliveries.
func (s *Splitter) RecordedReports() int {
	total := 0
	for _, byPhase := range s.seen {
		for _, c := range byPhase {
			total += c[0] + c[1]
		}
	}
	return total
}

// score ranks a group's messages: lower is delivered sooner.
func (s *Splitter) score(k groupKey) int {
	typ, phase, val := Unpack(k.payload)
	switch typ {
	case typeDecide:
		return 1 << 20 // starve decision gossip while anything else exists
	case typePropose:
		if val == valBottom {
			return 0 // bottom proposals keep everyone undecided
		}
		return 1000
	case typeReport:
		if val != 0 && val != 1 {
			return 500
		}
		// Delivering the minority value reduces imbalance: score by the
		// resulting imbalance of the receiver's tally.
		var after [2]int
		if k.to < len(s.seen) && phase < len(s.seen[k.to]) {
			after = s.seen[k.to][phase]
		}
		after[val]++
		imb := after[0] - after[1]
		if imb < 0 {
			imb = -imb
		}
		return 10 + imb
	default:
		return 100
	}
}

// record tracks one actual delivery and rescores the receiver's two
// report groups for its phase, the only scores a delivery moves.
func (s *Splitter) record(m Message) {
	typ, phase, val := Unpack(m.Payload)
	if typ != typeReport || (val != 0 && val != 1) {
		return
	}
	if m.To >= len(s.seen) {
		s.seen = append(s.seen, make([][][2]int, m.To+1-len(s.seen))...)
	}
	if byPhase := s.seen[m.To]; phase >= len(byPhase) {
		s.seen[m.To] = append(byPhase, make([][2]int, phase+1-len(byPhase))...)
	}
	s.seen[m.To][phase][val]++
	for v := 0; v < 2; v++ {
		if g := s.groups[groupKey{m.To, Pack(typeReport, phase, v)}]; g != nil {
			s.heap[g.pos].score = s.score(g.key)
			s.fix(g.pos)
		}
	}
}

// fix restores heap order after the slot at i changed its key.
func (s *Splitter) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

// up moves the slot at i toward the top while it orders before its parent.
func (s *Splitter) up(i int) {
	h, x := s.heap, s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].g.pos = i
		i = p
	}
	h[i] = x
	x.g.pos = i
}

// down moves the slot at i toward the leaves while a child orders before
// it, and reports whether it moved.
func (s *Splitter) down(i int) bool {
	h, x, i0 := s.heap, s.heap[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		h[i].g.pos = i
		i = c
	}
	h[i] = x
	x.g.pos = i
	return i > i0
}

// SyncRound emulates the synchronous lock-step schedule on the
// asynchronous engine: among pending messages it delivers the one whose
// receiver has received the fewest messages so far (ties broken by
// sequence number, i.e. creation order), so deliveries spread round-robin
// across receivers the way a perfect synchronizer would spread a round's
// broadcast. The tally counts true deliveries via the DeliveryObserver
// callback — the conformance harness runs the async engine under this
// scheduler as its synchronous-round lane.
type SyncRound struct {
	delivered []int
}

var _ Scheduler = (*SyncRound)(nil)
var _ DeliveryObserver = (*SyncRound)(nil)

// NewSyncRound builds the synchronous-round scheduler.
func NewSyncRound() *SyncRound { return &SyncRound{} }

// Name implements Scheduler.
func (s *SyncRound) Name() string { return "syncround" }

// Next implements Scheduler.
func (s *SyncRound) Next(v *View) Action {
	best, bestCount := 0, 1<<30
	for idx := 0; idx < v.NumPending(); idx++ {
		m, c := v.Pending(idx), 0
		if m.To < len(s.delivered) {
			c = s.delivered[m.To]
		}
		if c < bestCount { // seq order breaks ties: first hit wins
			bestCount, best = c, idx
		}
	}
	return Action{Victim: -1, Deliver: best}
}

// Delivered implements DeliveryObserver.
func (s *SyncRound) Delivered(m Message) {
	for len(s.delivered) <= m.To {
		s.delivered = append(s.delivered, 0)
	}
	s.delivered[m.To]++
}
