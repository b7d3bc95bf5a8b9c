package async

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
	act := Action{Victim: -1, Deliver: v.Rng.Intn(len(v.Pending))}
	if s.CrashProb > 0 && v.Budget > 0 && v.Rng.Float64() < s.CrashProb {
		var live []int
		for i, a := range v.Alive {
			if a {
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
type Splitter struct {
	// seen[r][p] counts the REPORT values 0 and 1 already delivered to
	// receiver r in the receiver's phase bucket p (approximated by the
	// message's phase number, which Pack keeps non-negative).
	seen [][][2]int
}

var _ Scheduler = (*Splitter)(nil)

// NewSplitter builds the adaptive scheduler.
func NewSplitter() *Splitter { return &Splitter{} }

// Name implements Scheduler.
func (s *Splitter) Name() string { return "splitter" }

// Next implements Scheduler. It is pure: the seen tally is updated by
// Delivered, with the message the engine actually delivered — recording
// the chosen message here instead would drift whenever a same-step crash
// recompacts pending (the Splitter-tally bug the conformance harness
// flushed out; TestSplitterTallyMatchesDeliveries pins the fix).
func (s *Splitter) Next(v *View) Action {
	bestIdx, bestScore := 0, 1<<30
	for idx, m := range v.Pending {
		score := s.score(m)
		if score < bestScore {
			bestScore, bestIdx = score, idx
			if score == 0 {
				break // nothing scores lower; skip the rest of the scan
			}
		}
	}
	return Action{Victim: -1, Deliver: bestIdx}
}

// Delivered implements DeliveryObserver: the tally counts true
// deliveries only.
func (s *Splitter) Delivered(m Message) { s.record(m) }

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

// score ranks a message: lower is delivered sooner.
func (s *Splitter) score(m Message) int {
	typ, phase, val := Unpack(m.Payload)
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
		if m.To < len(s.seen) && phase < len(s.seen[m.To]) {
			after = s.seen[m.To][phase]
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

// record tracks one actual delivery.
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
	for idx, m := range v.Pending {
		c := 0
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
