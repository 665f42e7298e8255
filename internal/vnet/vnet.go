// Package vnet simulates the internet between the serving machine and
// its clients: point-to-point links that lose, reorder and delay
// packets, driven by a deterministic discrete-event scheduler on the
// same simulated-cycles clock the kernel charges CPU work to.
//
// The simulation is metadata-only.  A Packet carries flow, sequence,
// length, acknowledgment and window fields but no payload: payload bytes
// stay on the sender in mbuf chains under their ephemeral mappings
// (which is the point — retransmission is why send-side mappings
// outlive the first transmit), and the serving layer in
// internal/netstack interprets deliveries against that state.
//
// Determinism is the design constraint everything else follows from.
// Events fire in (time, schedule-order) order — from a timing wheel of
// one-cycle FIFOs for events due soon and a 4-ary heap of value keys for
// the rest, over one recycled slab of typed events (see Net) — all
// randomness comes from per-link splitmix64 generators seeded from the
// caller's one seed, and the event loop is single-threaded: Step and Run
// must be called from one goroutine, and every callback runs on that
// goroutine.  Two runs with the same seed therefore replay the same
// packet schedule bit for bit, which TraceHash certifies — it folds
// every delivery and timer into one FNV-1a digest that the determinism
// suite compares across runs.  Virtual time is measured in simulated CPU
// cycles so that network round trips and mapping-stall backoffs add in
// the same unit the latency percentiles are reported in, but the clock
// only advances through link delays and timers — never by CPU work,
// which the smp machine accounts separately.
package vnet

import "math/bits"

// Flags mark a packet's role.
type Flags uint8

const (
	// FlagAck marks a pure acknowledgment (Ack and Win are meaningful).
	FlagAck Flags = 1 << iota
	// FlagFin marks the flow's final data packet.
	FlagFin
	// FlagProbe marks a zero-window probe: a dataless poke that asks the
	// receiver to re-advertise its window after a lost update.
	FlagProbe
)

// Packet is the metadata of one frame in flight.
type Packet struct {
	// Flow identifies the connection.
	Flow int
	// Seq is the first payload byte's stream offset and Len the payload
	// length; data packets only.
	Seq int64
	Len int
	// Ack is the cumulative acknowledgment and Win the advertised
	// receive window in bytes; meaningful when FlagAck is set.
	Ack int64
	Win int
	// Flags marks the packet's role.
	Flags Flags
}

// Rand is a splitmix64 generator: deterministic, seedable, and cheap
// enough to sit on the per-packet path.
type Rand struct{ state uint64 }

// NewRand returns a generator; distinct links derive distinct streams by
// seeding with seed+linkID so call interleaving cannot couple them.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// heapKey orders one pending far event.  Keys are values, so sifting
// moves 24 bytes and never touches the event it names.
type heapKey struct {
	at   int64
	seq  uint64 // schedule order: the deterministic tiebreak
	slot int32  // the event's index in Net.events
}

func (k heapKey) before(o heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// event is what fires: a delivery of pkt on link, or (link nil) a timer
// callback.  Deliveries are dispatched directly, so Send captures nothing.
// next links the event to the one after it in its wheel slot's FIFO.
type event struct {
	link *Link
	pkt  Packet
	fn   func()
	next int32
}

// The timing wheel spans wheelSize cycles: an event due before
// now+wheelSize waits in the FIFO of its exact cycle, anything later in
// the heap.  Link deliveries (delay plus reorder hold) land well inside
// the span; RTO, probe, retry and drain timers mostly land beyond it.
const (
	wheelSize = 1 << 14
	wheelMask = wheelSize - 1
)

// Stats counts scheduler and link activity.
type Stats struct {
	// Sent counts packets offered to links, Delivered those that arrived,
	// Dropped those lost, Reordered those given extra reordering delay.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Reordered uint64
	// Timers counts After callbacks fired; Events counts every event.
	Timers uint64
	Events uint64
}

// Net is one virtual network: a clock, an event queue, and the links
// created on it.  Single-threaded: see the package comment.
//
// Pending events live in events, a slab whose freed slots are reused
// (free is the stack of them; slot 0 is never used, so 0 means "none").
// They are ordered by two containers that split the future at
// now+wheelSize:
//
//   - The wheel holds every event due in [now, now+wheelSize), one FIFO
//     per cycle, linked through event.next from head to tail.  A slot
//     holds one cycle at a time, since the span is one lap.  A
//     two-level bitmap (occ over slots, occWords over occ's words)
//     finds the next occupied slot.
//   - The heap, a 4-ary min-heap of (at, seq) keys, holds every later
//     event.  Whenever the clock advances, the heap's keys that the new
//     now+wheelSize brings into range move to their cycles' FIFOs in
//     (at, seq) order, before the event at the new now fires.
//
// The order is exact: seq rises with every schedule, so an event can be
// inserted directly into a cycle's FIFO only after every heap key for
// that cycle has migrated there — and those all carry smaller seqs — so
// each FIFO is in schedule order and the wheel fires exactly the (at,
// seq) sequence one heap of every event would.  All of it grows to the
// peak number of events in flight and no further: steady-state Send,
// After and Step allocate nothing.
type Net struct {
	now    int64
	seq    uint64
	heap   []heapKey
	events []event
	free   []int32
	seed   uint64
	links  int
	hash   uint64
	stats  Stats

	wheelN     int // events in the wheel
	head, tail [wheelSize]int32
	occ        [wheelSize / 64]uint64
	occWords   [wheelSize / 64 / 64]uint64
}

// New creates a network whose links derive their randomness from seed.
func New(seed uint64) *Net {
	return &Net{seed: seed, hash: fnvOffset, events: make([]event, 1)}
}

// Now returns the current virtual time in simulated cycles.
func (n *Net) Now() int64 { return n.now }

// Stats returns a copy of the activity counters.
func (n *Net) Stats() Stats { return n.stats }

// Pending returns the number of scheduled events.
func (n *Net) Pending() int { return n.wheelN + len(n.heap) }

// After schedules fn to run at Now()+d (d floors at zero, meaning "next
// event slot").
func (n *Net) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	n.schedule(n.now+d, event{fn: fn})
}

// schedule queues ev to fire at cycle at, which must not be in the past:
// an event due before now would fire ahead of events already due at now.
func (n *Net) schedule(at int64, ev event) {
	if at < n.now {
		panic("vnet: event scheduled in the past")
	}
	var slot int32
	if f := len(n.free); f > 0 {
		slot = n.free[f-1]
		n.free = n.free[:f-1]
		n.events[slot] = ev
	} else {
		slot = int32(len(n.events))
		n.events = append(n.events, ev)
	}
	if at-n.now < wheelSize {
		n.wheelPush(at, slot)
	} else {
		n.push(heapKey{at: at, seq: n.seq, slot: slot})
	}
	n.seq++
}

// wheelPush appends event slot to the FIFO of cycle at.
func (n *Net) wheelPush(at int64, slot int32) {
	s := int(at & wheelMask)
	if t := n.tail[s]; t != 0 {
		n.events[t].next = slot
	} else {
		n.head[s] = slot
		n.occ[s>>6] |= 1 << (s & 63)
		n.occWords[s>>12] |= 1 << ((s >> 6) & 63)
	}
	n.tail[s] = slot
	n.wheelN++
}

// wheelPop removes and returns the head of slot s's FIFO.
func (n *Net) wheelPop(s int) int32 {
	slot := n.head[s]
	next := n.events[slot].next
	n.head[s] = next
	if next == 0 {
		n.tail[s] = 0
		if n.occ[s>>6] &^= 1 << (s & 63); n.occ[s>>6] == 0 {
			n.occWords[s>>12] &^= 1 << ((s >> 6) & 63)
		}
	}
	n.wheelN--
	return slot
}

// nextSlot returns the wheel slot holding the earliest event, which must
// exist.  Slots are scanned circularly from now's: those at or after it
// hold this lap's cycles, those before it the next lap's.
func (n *Net) nextSlot() int {
	p := int(n.now & wheelMask)
	if b := n.occ[p>>6] >> (p & 63); b != 0 {
		return p + bits.TrailingZeros64(b)
	}
	w := n.nextWord(p>>6 + 1)
	if w < 0 {
		w = n.nextWord(0) // wrap; may be now's own word, below p
	}
	return w<<6 + bits.TrailingZeros64(n.occ[w])
}

// nextWord returns the first non-empty occ word at index from or later,
// or -1.
func (n *Net) nextWord(from int) int {
	for i := from >> 6; i < len(n.occWords); i++ {
		b := n.occWords[i]
		if i == from>>6 {
			b &= ^uint64(0) << (from & 63)
		}
		if b != 0 {
			return i<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// advance moves the clock to at and migrates the heap keys that now fall
// inside the wheel's span, in (at, seq) order.
func (n *Net) advance(at int64) {
	n.now = at
	for len(n.heap) > 0 && n.heap[0].at-at < wheelSize {
		k := n.popMin()
		n.wheelPush(k.at, k.slot)
	}
}

// push adds a key to the heap.
func (n *Net) push(k heapKey) {
	// Sift up: 4-ary, so the parent of i is (i-1)/4.
	h := append(n.heap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	n.heap = h
}

// popMin removes and returns the earliest key.
func (n *Net) popMin() heapKey {
	h := n.heap
	top := h[0]
	last := len(h) - 1
	k := h[last]
	h = h[:last]
	n.heap = h
	// Sift the former last key down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < last; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if last > 0 {
		h[i] = k
	}
	return top
}

// Step fires the earliest event, advancing the clock to it.  It returns
// false when no events remain.
func (n *Net) Step() bool {
	if n.wheelN == 0 {
		if len(n.heap) == 0 {
			return false
		}
		// Nothing due within the span: jump to the earliest far event,
		// which migrates it (and its span's followers) into the wheel.
		n.advance(n.heap[0].at)
	}
	s := n.nextSlot()
	if at := n.now + int64((s-int(n.now&wheelMask))&wheelMask); at != n.now {
		n.advance(at)
	}
	slot := n.wheelPop(s)
	// Copy the event out and give its slot back before firing: the
	// callback may schedule, which reuses the slot or grows the slab.
	ev := n.events[slot]
	n.events[slot] = event{}
	n.free = append(n.free, slot)
	n.stats.Events++
	if ev.link != nil {
		n.stats.Delivered++
		n.foldPacket('P', ev.pkt)
		ev.link.Deliver(ev.pkt)
	} else {
		n.stats.Timers++
		n.hash = fold(fold(n.hash, 'T'), uint64(n.now))
		ev.fn()
	}
	return true
}

// Run fires events until none remain.
func (n *Net) Run() {
	for n.Step() {
	}
}

// RunLimit fires at most limit events, returning the number fired — the
// runaway backstop for misconfigured protocols that never drain.
func (n *Net) RunLimit(limit uint64) uint64 {
	var fired uint64
	for fired < limit && n.Step() {
		fired++
	}
	return fired
}

// TraceHash digests the schedule observed so far: every delivery's
// (time, flow, seq, len, ack, win, flags) and every drop, in firing
// order.  Equal seeds and equal workloads produce equal hashes; any
// divergence in packet scheduling changes the digest.
func (n *Net) TraceHash() uint64 { return n.hash }

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnvPow[k] is fnvPrime^k: k FNV-1a steps over zero bytes, each of which
// is a bare multiply.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fold digests v's eight bytes, low byte first, into the FNV-1a state h.
// Bytes above v's highest non-zero one are folded as one multiply.
func fold(h, v uint64) uint64 {
	k := (bits.Len64(v) + 7) >> 3
	for i := 0; i < k; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h * fnvPow[8-k]
}

func (n *Net) foldPacket(tag uint64, p Packet) {
	h := fold(fold(n.hash, tag), uint64(n.now))
	h = fold(fold(h, uint64(p.Flow)), uint64(p.Seq))
	h = fold(fold(h, uint64(p.Len)), uint64(p.Ack))
	n.hash = fold(fold(h, uint64(p.Win)), uint64(p.Flags))
}

// Link is one simplex path with loss, reordering and delay.  Deliver is
// invoked (on the event-loop goroutine) for each packet that survives.
type Link struct {
	n *Net
	// LossPct is the percentage of packets dropped; ReorderPct the
	// percentage of surviving packets held back by an extra jitter so
	// they overtake later traffic.
	LossPct    int
	ReorderPct int
	// DelayMin and DelayMax bound the uniform one-way delay in cycles;
	// ReorderDelay is the extra hold applied to reordered packets (zero
	// defaults to DelayMax-DelayMin, one full jitter span).
	DelayMin     int64
	DelayMax     int64
	ReorderDelay int64
	// Deliver receives surviving packets.
	Deliver func(Packet)

	rng *Rand
}

// NewLink creates a link on the network with the given delay bounds.
// Loss/reorder default to zero; callers set the fields before traffic
// flows.
func (n *Net) NewLink(delayMin, delayMax int64, deliver func(Packet)) *Link {
	l := &Link{
		n:        n,
		DelayMin: delayMin,
		DelayMax: delayMax,
		Deliver:  deliver,
		rng:      NewRand(n.seed + uint64(n.links)*0x6a09e667f3bcc909 + 1),
	}
	n.links++
	return l
}

// Send offers a packet to the link: it is dropped with LossPct, else
// delivered after a uniform delay in [DelayMin, DelayMax], plus
// ReorderDelay with ReorderPct.
func (l *Link) Send(p Packet) {
	n := l.n
	n.stats.Sent++
	if l.LossPct > 0 && l.rng.Intn(100) < l.LossPct {
		n.stats.Dropped++
		n.foldPacket('D', p)
		return
	}
	delay := l.DelayMin
	if span := l.DelayMax - l.DelayMin; span > 0 {
		delay += l.rng.Int63n(span + 1)
	}
	if l.ReorderPct > 0 && l.rng.Intn(100) < l.ReorderPct {
		extra := l.ReorderDelay
		if extra == 0 {
			extra = l.DelayMax - l.DelayMin
		}
		delay += extra
		n.stats.Reordered++
	}
	n.schedule(n.now+delay, event{link: l, pkt: p})
}
