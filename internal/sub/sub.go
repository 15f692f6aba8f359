// Package sub implements standing subscriptions over serve sessions:
// clients register predicates — interference thresholds, geographic
// regions, global-max changes — and receive edge-triggered events as
// mutation batches commit. Matching is incremental: it hangs off the
// serve.AfterBatchDelta seam and evaluates only the predicates whose
// receivers or regions intersect the batch's dirty set, so per-batch cost
// scales with churn, not with the number of standing subscriptions.
//
// Delivery is push-based and loss-tolerant by design: every subscriber
// owns a bounded event queue, and a subscriber that stops draining loses
// events rather than blocking the mutation pipeline. Losses are visible,
// never silent — each subscription carries its own contiguous sequence
// number (a jump reveals exactly how many events were shed) and the first
// event delivered after a loss carries FlagGap so resuming consumers know
// to resynchronize from a snapshot.
package sub

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Kind selects which predicate a subscription evaluates.
type Kind uint8

const (
	// KindThreshold fires when interference(Receiver) crosses K in either
	// direction: FlagRising marks the false→true edge (I ≥ K), its absence
	// the true→false edge. Value carries the post-batch interference; a
	// removed receiver evaluates as false with Value 0.
	KindThreshold Kind = iota + 1
	// KindRegion fires when a node enters (FlagRising) or leaves the disk
	// of radius R around (X, Y) — the ST_DWithin analog over the engine's
	// grid. Node identifies the crossing node; membership uses the same
	// boundary tolerance as geom.InDisk.
	KindRegion
	// KindMax fires when the session's maximum interference changes.
	// Value carries the new maximum, FlagRising marks an increase.
	KindMax
)

// String names the kind for logs and wire-level errors.
func (k Kind) String() string {
	switch k {
	case KindThreshold:
		return "threshold"
	case KindRegion:
		return "region"
	case KindMax:
		return "max"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Predicate is the standing condition a subscription watches. Only the
// fields its Kind reads are meaningful: K and Receiver for thresholds,
// X/Y/R for regions, nothing for max.
type Predicate struct {
	Kind     Kind
	K        int32   // threshold: fire edge at interference ≥ K
	Receiver int64   // threshold: external node id watched
	X, Y     float64 // region: disk center
	R        float64 // region: disk radius
}

// Validate rejects predicates the matcher cannot evaluate.
func (p Predicate) Validate() error {
	switch p.Kind {
	case KindThreshold:
		if p.K < 0 {
			return errors.New("sub: negative threshold")
		}
		if p.Receiver < 0 {
			return errors.New("sub: negative receiver id")
		}
	case KindRegion:
		if p.R < 0 || p.R != p.R {
			return errors.New("sub: invalid region radius")
		}
		if p.X != p.X || p.Y != p.Y {
			return errors.New("sub: NaN region center")
		}
	case KindMax:
	default:
		return fmt.Errorf("sub: unknown predicate kind %d", uint8(p.Kind))
	}
	return nil
}

// Event flag bits.
const (
	// FlagRising marks the false→true direction of an edge: threshold
	// reached, node entered, max increased.
	FlagRising uint8 = 1 << iota
	// FlagInit marks the synthetic first event of a subscription, carrying
	// its initial state (threshold truth + value, region member count in
	// Value with Node −1, current max). Always Seq 1.
	FlagInit
	// FlagGap marks the first event delivered after the subscriber's queue
	// shed one or more events; the Seq jump says how many were lost.
	FlagGap
)

// Event is one edge-triggered notification. Seq is contiguous per
// subscription across everything the matcher decided to send — a dropped
// event still consumes its number, so receivers detect loss as a Seq jump
// (and see FlagGap on the next event that does arrive). BatchSeq is the
// session mutation sequence of the batch that produced the edge.
type Event struct {
	SubID    uint64
	Seq      uint64
	BatchSeq uint64
	Node     int64 // crossing node (region), receiver (threshold), −1 otherwise
	Value    int32 // interference value, new max, or Init member count
	Kind     Kind
	Flags    uint8
	Trace    uint64 // distributed trace id of the producing batch; 0 = untraced
}

// Rising reports the false→true direction.
func (e Event) Rising() bool { return e.Flags&FlagRising != 0 }

// Init reports the synthetic initial-state event.
func (e Event) Init() bool { return e.Flags&FlagInit != 0 }

// Gap reports that events were lost immediately before this one.
func (e Event) Gap() bool { return e.Flags&FlagGap != 0 }

// Subscriber is one consumer endpoint: a bounded queue that any number of
// subscriptions (across sessions) fan into. Create with Hub.NewSubscriber,
// drain Events, and retire with Hub.CloseSubscriber.
type Subscriber struct {
	ch    chan Event
	drops obs.Counter
	subs  map[uint64]struct{} // guarded by hub.mu
}

// Events returns the delivery channel. It is closed by CloseSubscriber
// after the subscriber's last subscription is detached.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Drops returns how many events were shed because the queue was full.
func (s *Subscriber) Drops() int64 { return s.drops.Value() }

// Config parameterizes a Hub. The zero value is usable.
type Config struct {
	// QueueCap bounds each subscriber's event queue (default 1024). A full
	// queue sheds events — see FlagGap — instead of blocking the batch
	// pipeline.
	QueueCap int
	// Cell is the side length of the matcher's region index cells
	// (default 8). Region subscriptions register in every cell their disk's
	// bounding box overlaps; a node position change probes only its own
	// cell, so far-away subscriptions are never visited.
	Cell float64
	// Registry, when set, receives the rim_sub_* metrics.
	Registry *obs.Registry
}

// Stats is a snapshot of the hub's matcher counters, primarily for tests
// asserting the incremental-cost contract.
type Stats struct {
	Events  int64 // events enqueued to subscriber queues
	Dropped int64 // events shed at full queues
	Checked int64 // predicate evaluations performed
	Batches int64 // batch passes that found any work
	Subs    int   // live subscriptions (including pending)
}

// Hub owns all subscriptions and runs the matcher. Wire it into a serve
// manager with Config.AfterBatchDelta = hub.AfterBatchDelta; everything
// else is control plane.
//
// Locking: control-plane calls take mu exclusively; the per-batch matcher
// pass takes it shared, so passes for different sessions run concurrently
// (each touches only its own session's state — batch passes for one
// session are already serialized by the session owner goroutine).
type Hub struct {
	queueCap int
	cell     float64

	mu       sync.RWMutex
	matchers map[string]*matcher
	owner    map[uint64]*matcher  // subscription id → its session matcher
	sbs      map[*Subscriber]bool // live subscriber endpoints (queue-depth gauge)
	nextID   uint64
	nSubs    int

	events  *obs.Counter
	dropped *obs.Counter
	checked *obs.Counter
	batches *obs.Counter
}

// NewHub builds a hub and registers its metrics if cfg.Registry is set.
func NewHub(cfg Config) *Hub {
	h := &Hub{
		queueCap: cfg.QueueCap,
		matchers: make(map[string]*matcher),
		owner:    make(map[uint64]*matcher),
		sbs:      make(map[*Subscriber]bool),
	}
	if h.queueCap <= 0 {
		h.queueCap = 1024
	}
	h.cell = cfg.Cell
	if h.cell <= 0 {
		h.cell = 8
	}
	if reg := cfg.Registry; reg != nil {
		h.events = reg.Counter("rim_sub_events_total", "Subscription events enqueued for delivery.")
		h.dropped = reg.Counter("rim_sub_dropped_total", "Subscription events shed at full subscriber queues.")
		h.checked = reg.Counter("rim_sub_checked_total", "Predicate evaluations performed by the matcher.")
		h.batches = reg.Counter("rim_sub_batches_total", "Batch passes that evaluated at least one predicate.")
		reg.GaugeFunc("rim_sub_subscriptions", "Live subscriptions.", func() float64 {
			h.mu.RLock()
			defer h.mu.RUnlock()
			return float64(h.nSubs)
		})
		reg.GaugeFunc("rim_sub_queue_depth", "Events waiting in subscriber queues.", func() float64 {
			h.mu.RLock()
			defer h.mu.RUnlock()
			depth := 0
			for sb := range h.sbs {
				depth += len(sb.ch)
			}
			return float64(depth)
		})
	} else {
		h.events = new(obs.Counter)
		h.dropped = new(obs.Counter)
		h.checked = new(obs.Counter)
		h.batches = new(obs.Counter)
	}
	return h
}

// Stats snapshots the matcher counters.
func (h *Hub) Stats() Stats {
	h.mu.RLock()
	n := h.nSubs
	h.mu.RUnlock()
	return Stats{
		Events:  h.events.Value(),
		Dropped: h.dropped.Value(),
		Checked: h.checked.Value(),
		Batches: h.batches.Value(),
		Subs:    n,
	}
}

// NewSubscriber creates a consumer endpoint with the hub's queue bound.
func (h *Hub) NewSubscriber() *Subscriber {
	sb := &Subscriber{
		ch:   make(chan Event, h.queueCap),
		subs: make(map[uint64]struct{}),
	}
	h.mu.Lock()
	h.sbs[sb] = true
	h.mu.Unlock()
	return sb
}

// Subscribe registers p against the named session and returns the
// subscription id. The session does not need to exist yet: matching
// starts with the first batch a session by that name commits, which also
// delivers the subscription's FlagInit event. Subscribing never blocks on
// the batch pipeline.
func (h *Hub) Subscribe(session string, p Predicate, sb *Subscriber) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if sb == nil {
		return 0, errors.New("sub: nil subscriber")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if sb.subs == nil {
		return 0, errors.New("sub: subscriber is closed")
	}
	m := h.matchers[session]
	if m == nil {
		m = newMatcher(session, h.cell)
		h.matchers[session] = m
	}
	h.nextID++
	s := &subscription{id: h.nextID, p: p, sb: sb}
	m.pending = append(m.pending, s)
	h.owner[s.id] = m
	sb.subs[s.id] = struct{}{}
	h.nSubs++
	return s.id, nil
}

// Unsubscribe detaches one subscription. It reports whether the id was
// live. No terminal event is delivered.
func (h *Hub) Unsubscribe(id uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.unsubscribeLocked(id)
}

func (h *Hub) unsubscribeLocked(id uint64) bool {
	m := h.owner[id]
	if m == nil {
		return false
	}
	delete(h.owner, id)
	if s := m.detach(id); s != nil {
		delete(s.sb.subs, id)
	}
	h.nSubs--
	if m.empty() {
		delete(h.matchers, m.session)
	}
	return true
}

// CloseSubscriber detaches all of sb's subscriptions and closes its event
// channel. Safe against concurrent batch passes: the channel is only
// closed once no matcher can still send to it.
func (h *Hub) CloseSubscriber(sb *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sb.subs == nil {
		return
	}
	for id := range sb.subs {
		if m := h.owner[id]; m != nil {
			delete(h.owner, id)
			m.detach(id)
			h.nSubs--
			if m.empty() {
				delete(h.matchers, m.session)
			}
		}
	}
	delete(h.sbs, sb)
	sb.subs = nil
	close(sb.ch)
}

// DropSession discards every subscription standing against the named
// session (mirroring a server-side session drop). Subscribers are not
// closed — their other sessions' subscriptions keep flowing — but the
// dropped subscriptions simply stop producing events.
func (h *Hub) DropSession(session string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.matchers[session]
	if m == nil {
		return
	}
	delete(h.matchers, session)
	for _, s := range m.all() {
		delete(h.owner, s.id)
		delete(s.sb.subs, s.id)
		h.nSubs--
	}
}

// AfterBatchDelta is the matcher entry point: install it as the serve
// manager's AfterBatchDelta hook. It runs on the session owner goroutine
// with the batch's dirty summary and must never block — delivery is
// non-blocking by construction. A terminal view (the session was
// dropped) retires the session's subscriptions through DropSession.
func (h *Hub) AfterBatchDelta(v serve.BatchView) {
	if v.Engine == nil {
		h.DropSession(v.Session)
		return
	}
	h.mu.RLock()
	m := h.matchers[v.Session]
	if m == nil || (v.Delta.Empty() && len(m.pending) == 0) {
		h.mu.RUnlock()
		return
	}
	m.run(h, v)
	h.mu.RUnlock()
}

// emit assigns the event's per-subscription sequence number and attempts
// non-blocking delivery. A full queue sheds the event (the sequence
// number is still consumed, so the receiver sees the jump) and arms
// FlagGap for the next event that does get through.
func (h *Hub) emit(s *subscription, ev Event) {
	s.seq++
	ev.SubID = s.id
	ev.Seq = s.seq
	ev.Kind = s.p.Kind
	if s.gapped {
		ev.Flags |= FlagGap
	}
	select {
	case s.sb.ch <- ev:
		s.gapped = false
		h.events.Inc()
	default:
		s.gapped = true
		s.sb.drops.Inc()
		h.dropped.Inc()
	}
}
