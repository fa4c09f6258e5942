package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/desim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Telemetry: serve's own behaviour, observable without perturbing it
// (these writes never reach a histogram or an RNG stream).
var (
	telRequests = telemetry.Default().Counter("serve.requests")
	telDropped  = telemetry.Default().Counter("serve.dropped")
	telBatches  = telemetry.Default().Counter("serve.batches")
)

// ServiceConfig is the per-request service-time model: lognormal with
// median Mean and shape Sigma (Sigma 0 = deterministic Mean), drawn from
// a per-request stream keyed on (seed, request index) so a request's
// cost is identical whether it is served open-loop, closed-loop, first,
// or last — the property the coordinated-omission comparison and every
// bit-identity guarantee rest on.
type ServiceConfig struct {
	Mean    time.Duration
	Sigma   float64
	PerItem time.Duration // added service time per extra request in a batch
}

// Stall is one injected server freeze: no batch may start service inside
// [At, At+Dur). In-flight batches complete normally — the stall models a
// scheduler stall or GC pause at the dispatch point, the canonical
// trigger of coordinated omission.
type Stall struct {
	At  time.Duration
	Dur time.Duration
}

// ServerConfig parametrizes the simulated service.
type ServerConfig struct {
	// Servers is the number of parallel service units (default 1).
	Servers int
	// QueueCap bounds the pending-request queue; arrivals beyond it are
	// dropped and counted (0 = unbounded).
	QueueCap int
	// BatchMax is the largest batch a server takes at once (default 1 =
	// no batching). BatchDelay is how long an unfilled batch waits for
	// more requests before dispatching anyway (0 = dispatch whatever is
	// queued as soon as a server is free) — the size/deadline policy of
	// inference serving.
	BatchMax   int
	BatchDelay time.Duration
	// Service is the service-time model.
	Service ServiceConfig
	// Stalls are injected dispatch freezes, sorted by At.
	Stalls []Stall
}

// ErrBadServer reports a nonsensical server configuration.
var ErrBadServer = fmt.Errorf("serve: invalid server config")

func (c ServerConfig) withDefaults() (ServerConfig, error) {
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.BatchMax == 0 {
		c.BatchMax = 1
	}
	if c.Servers < 0 || c.QueueCap < 0 || c.BatchMax < 0 || c.BatchDelay < 0 {
		return c, fmt.Errorf("%w: negative servers/queue/batch parameters", ErrBadServer)
	}
	if c.Service.Mean == 0 {
		c.Service.Mean = time.Millisecond
	}
	if c.Service.Mean < 0 || c.Service.Sigma < 0 || c.Service.PerItem < 0 {
		return c, fmt.Errorf("%w: negative service-time parameters", ErrBadServer)
	}
	for i, s := range c.Stalls {
		if s.At < 0 || s.Dur <= 0 {
			return c, fmt.Errorf("%w: stall %d at %v for %v", ErrBadServer, i, s.At, s.Dur)
		}
		if i > 0 && s.At < c.Stalls[i-1].At+c.Stalls[i-1].Dur {
			return c, fmt.Errorf("%w: stalls must be sorted and non-overlapping", ErrBadServer)
		}
	}
	return c, nil
}

// LoopMode selects how the load generator issues requests.
type LoopMode string

// Load-generation modes.
const (
	// OpenLoop issues requests on the arrival schedule regardless of
	// responses — the only mode whose tail percentiles are free of
	// coordinated omission.
	OpenLoop LoopMode = "open-loop"
	// ClosedLoop keeps a fixed number of clients, each issuing its next
	// request only after the previous response — the shape of most
	// naive benchmark loops, which under-reports tails under stalls.
	ClosedLoop LoopMode = "closed-loop"
)

// DefaultMaxRequests caps a single epoch's request count as a safety
// valve against runaway rate×duration configurations.
const DefaultMaxRequests = 4 << 20

// Options configures one simulated serving epoch.
type Options struct {
	Arrival  ArrivalConfig
	Server   ServerConfig
	Duration time.Duration
	// MaxRequests caps the epoch (0 = DefaultMaxRequests).
	MaxRequests int
	Seed        uint64
	// Mode defaults to OpenLoop.
	Mode LoopMode
	// Clients is the closed-loop concurrency (0 = Servers).
	Clients int
	// Hist, when non-nil, receives the latency recordings (reset
	// first); otherwise a fresh histogram is allocated. Lets sweep
	// loops reuse one histogram allocation across epochs.
	Hist *stats.LogHistogram
}

// Result is one fully simulated epoch.
type Result struct {
	Mode LoopMode
	// Offered counts generated requests (scheduled arrivals open-loop,
	// issued requests closed-loop); Completed counts requests served and
	// recorded; Dropped counts arrivals rejected by the bounded queue.
	// Offered == Completed + Dropped.
	Offered   int
	Completed int
	Dropped   int
	// Batches counts dispatched batches; MeanBatch is the mean batch
	// size (NaN when no batch dispatched).
	Batches   int
	MeanBatch float64
	// OfferedRate is Offered/Duration in req/s; Throughput is
	// Completed/End — the achieved service rate over the full drain.
	OfferedRate float64
	Throughput  float64
	// MaxLatency is the exact worst sojourn time; End is the simulated
	// time at which the last completion fired (≥ Duration under
	// backlog).
	MaxLatency time.Duration
	End        time.Duration
	// Hist holds every recorded request latency in seconds.
	Hist *stats.LogHistogram
}

// request is one in-flight request.
type request struct {
	idx     int
	arrival time.Duration
}

// batchSlot carries one in-flight batch. Its request buffer and its
// completion handler are allocated once and reused by every batch the
// slot carries, so dispatch allocates nothing in steady state.
type batchSlot struct {
	reqs []request
	done desim.Handler
}

// sim is the per-epoch simulation state driven by the desim engine.
type sim struct {
	eng  desim.Engine
	cfg  ServerConfig
	mode LoopMode
	seed uint64

	queue []request // FIFO; queue[head:] is the live window
	head  int
	idle  int
	free  []*batchSlot // slots not carrying a batch

	hist      *stats.LogHistogram
	completed int
	dropped   int
	batches   int
	batchSum  int
	maxLat    time.Duration

	wakePending bool
	wakeTime    time.Duration
	wakeFn      desim.Handler // s.onWake, bound once per Run

	// Closed-loop issue state.
	duration time.Duration
	maxReqs  int
	issued   int
}

// serviceDraw returns request i's service time, a pure function of
// (seed, i).
func (s *sim) serviceDraw(i int) time.Duration {
	svc := s.cfg.Service
	if svc.Sigma == 0 {
		return svc.Mean
	}
	st := rng.NewStream(
		rng.Mix64(s.seed^serviceSaltHi^uint64(i)),
		rng.Mix64(s.seed^serviceSaltLo^uint64(i)),
	)
	return time.Duration(math.Round(float64(svc.Mean) * math.Exp(svc.Sigma*st.NormFloat64())))
}

// stallClear returns the earliest time ≥ t at which dispatch is allowed.
func (s *sim) stallClear(t time.Duration) time.Duration {
	for _, st := range s.cfg.Stalls {
		if t < st.At {
			return t
		}
		if t < st.At+st.Dur {
			return st.At + st.Dur
		}
	}
	return t
}

func (s *sim) qlen() int { return len(s.queue) - s.head }

// arrive admits (or drops) one request at the current simulated time.
func (s *sim) arrive(idx int) {
	if s.cfg.QueueCap > 0 && s.qlen() >= s.cfg.QueueCap {
		s.dropped++
		telDropped.Inc()
		return
	}
	if len(s.queue) == cap(s.queue) && s.head > 0 {
		// Full: slide the live window to the front rather than regrow.
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	s.queue = append(s.queue, request{idx: idx, arrival: s.eng.Now()})
	s.tryDispatch()
}

// wake schedules a dispatch re-check at `at`, deduplicating against an
// already-pending earlier wake. Stale wake events are harmless:
// tryDispatch is idempotent.
func (s *sim) wake(at time.Duration) {
	if s.wakePending && s.wakeTime <= at {
		return
	}
	s.wakePending = true
	s.wakeTime = at
	s.eng.At(at, s.wakeFn)
}

// onWake is the wake event's handler. A wake always fires at the time
// it was scheduled for (it is never in the past), so the clock tells
// which wake this is.
func (s *sim) onWake(e *desim.Engine) {
	if s.wakeTime == e.Now() {
		s.wakePending = false
	}
	s.tryDispatch()
}

// slot takes a free batch slot, making one if none is free.
func (s *sim) slot() *batchSlot {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	b := &batchSlot{reqs: make([]request, 0, s.cfg.BatchMax)}
	b.done = func(*desim.Engine) { s.complete(b) }
	return b
}

// tryDispatch hands queued requests to idle servers under the batching
// policy: dispatch a full batch immediately, or an unfilled one once the
// oldest request has waited BatchDelay; defer any start that lands
// inside a stall window to its end.
func (s *sim) tryDispatch() {
	now := s.eng.Now()
	for s.idle > 0 && s.qlen() > 0 {
		k := s.qlen()
		if k > s.cfg.BatchMax {
			k = s.cfg.BatchMax
		}
		if k < s.cfg.BatchMax && s.cfg.BatchDelay > 0 {
			if deadline := s.queue[s.head].arrival + s.cfg.BatchDelay; now < deadline {
				s.wake(deadline)
				return
			}
		}
		if clear := s.stallClear(now); clear > now {
			s.wake(clear)
			return
		}

		b := s.slot()
		b.reqs = append(b.reqs[:0], s.queue[s.head:s.head+k]...)
		s.head += k
		if s.head == len(s.queue) {
			s.queue = s.queue[:0]
			s.head = 0
		}
		s.idle--
		s.batches++
		s.batchSum += k
		telBatches.Inc()

		// Batch service: the requests run together (the GPU-inference
		// shape — cost is the slowest member) plus a linear per-item
		// overhead.
		var dur time.Duration
		for _, r := range b.reqs {
			if d := s.serviceDraw(r.idx); d > dur {
				dur = d
			}
		}
		dur += s.cfg.Service.PerItem * time.Duration(k-1)
		s.eng.After(dur, b.done)
	}
}

// complete records a finished batch and, closed-loop, lets each freed
// client issue its next request. The slot goes back on the free stack
// only after its requests are read: a closed-loop arrival inside the
// loop may dispatch a new batch, which must take another slot.
func (s *sim) complete(b *batchSlot) {
	now := s.eng.Now()
	s.idle++
	for _, r := range b.reqs {
		lat := now - r.arrival
		if lat > s.maxLat {
			s.maxLat = lat
		}
		s.hist.Record(lat.Seconds())
		s.completed++
		telRequests.Inc()
		if s.mode == ClosedLoop && now < s.duration && s.issued < s.maxReqs {
			idx := s.issued
			s.issued++
			s.arrive(idx)
		}
	}
	s.free = append(s.free, b)
	s.tryDispatch()
}

// Run simulates one serving epoch to completion (all admitted requests
// served) and returns the analyzed result. The simulation is a pure
// function of Options: a single-threaded discrete-event run whose
// arrival schedule and per-request service draws are derived from the
// seed alone — see DESIGN.md §9 for the determinism contract.
func Run(o Options) (Result, error) {
	srv, err := o.Server.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if o.Duration <= 0 {
		return Result{}, fmt.Errorf("%w: duration %v must be positive", ErrBadServer, o.Duration)
	}
	if o.Mode == "" {
		o.Mode = OpenLoop
	}
	if o.Mode != OpenLoop && o.Mode != ClosedLoop {
		return Result{}, fmt.Errorf("%w: unknown mode %q", ErrBadServer, o.Mode)
	}
	maxReqs := o.MaxRequests
	if maxReqs <= 0 {
		maxReqs = DefaultMaxRequests
	}
	hist := o.Hist
	if hist == nil {
		hist = &stats.LogHistogram{}
	}
	hist.Reset()

	s := &sim{
		cfg:      srv,
		mode:     o.Mode,
		seed:     o.Seed,
		idle:     srv.Servers,
		hist:     hist,
		duration: o.Duration,
		maxReqs:  maxReqs,
	}
	s.wakeFn = s.onWake

	// Arrivals never enter the event queue: each one is handed to arrive
	// directly once every event strictly before it has fired. Events at
	// the arrival's own instant fire after it, the order an arrival
	// queued ahead of all other events would have had (DESIGN.md §9).
	offered := 0
	switch o.Mode {
	case OpenLoop:
		err := o.Arrival.each(o.Duration, maxReqs, o.Seed, func(at time.Duration) {
			s.eng.AdvanceTo(at)
			s.arrive(offered)
			offered++
		})
		if err != nil {
			return Result{}, err
		}
	case ClosedLoop:
		// Validate the arrival config anyway: open and closed runs of
		// the same Options must agree on what the experiment was.
		if _, err := o.Arrival.withDefaults(); err != nil {
			return Result{}, err
		}
		clients := o.Clients
		if clients <= 0 {
			clients = srv.Servers
		}
		for c := 0; c < clients && s.issued < maxReqs; c++ {
			idx := s.issued
			s.issued++
			s.arrive(idx)
		}
	}

	end := s.eng.Run()
	if o.Mode == ClosedLoop {
		offered = s.issued
	}

	res := Result{
		Mode:        o.Mode,
		Offered:     offered,
		Completed:   s.completed,
		Dropped:     s.dropped,
		Batches:     s.batches,
		MeanBatch:   math.NaN(),
		OfferedRate: float64(offered) / o.Duration.Seconds(),
		MaxLatency:  s.maxLat,
		End:         end,
		Hist:        hist,
	}
	if s.batches > 0 {
		res.MeanBatch = float64(s.batchSum) / float64(s.batches)
	}
	if end > 0 {
		res.Throughput = float64(s.completed) / end.Seconds()
	}
	return res, nil
}
