package serve

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRunDeterministic(t *testing.T) {
	// A Run is a pure function of Options: two invocations must agree on
	// every field, including the float sum inside the histogram (the
	// single-threaded event order is fixed, so even addition order is
	// reproduced bit-for-bit).
	o := Options{
		Arrival: ArrivalConfig{Kind: OnOff, Rate: 800},
		Server: ServerConfig{
			Servers:    2,
			QueueCap:   64,
			BatchMax:   4,
			BatchDelay: 2 * time.Millisecond,
			Service:    ServiceConfig{Mean: 3 * time.Millisecond, Sigma: 0.6, PerItem: 100 * time.Microsecond},
		},
		Duration: 4 * time.Second,
		Seed:     99,
	}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different results:\n%+v\nvs\n%+v", a, b)
	}
	if a.Completed == 0 || a.Batches == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.Offered != a.Completed+a.Dropped {
		t.Fatalf("conservation: offered %d != completed %d + dropped %d", a.Offered, a.Completed, a.Dropped)
	}
	if got := uint64(a.Completed); a.Hist.Count() != got {
		t.Fatalf("histogram holds %d records, completed %d", a.Hist.Count(), got)
	}
}

func TestBoundedQueueDrops(t *testing.T) {
	// Offered load at 10× capacity with a 4-deep queue must shed most of
	// the traffic — and account for every request.
	res, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 2000},
		Server:   ServerConfig{QueueCap: 4, Service: ServiceConfig{Mean: 5 * time.Millisecond}},
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("overloaded bounded queue dropped nothing: %+v", res)
	}
	if res.Offered != res.Completed+res.Dropped {
		t.Fatalf("conservation: %d != %d + %d", res.Offered, res.Completed, res.Dropped)
	}
	// Unbounded queue on the same schedule drops nothing.
	res2, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 2000},
		Server:   ServerConfig{Service: ServiceConfig{Mean: 5 * time.Millisecond}},
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Dropped != 0 || res2.Completed != res2.Offered {
		t.Fatalf("unbounded queue dropped: %+v", res2)
	}
}

func TestBatchingFillsBatches(t *testing.T) {
	// High arrival rate with size-8 batches and a deadline: batches must
	// actually fill (mean well above 1), and batching must beat
	// single-dispatch throughput on the identical schedule when per-item
	// cost is low.
	base := Options{
		Arrival:  ArrivalConfig{Rate: 5000},
		Duration: 2 * time.Second,
		Seed:     21,
	}
	batched := base
	batched.Server = ServerConfig{
		BatchMax:   8,
		BatchDelay: time.Millisecond,
		Service:    ServiceConfig{Mean: time.Millisecond, PerItem: 20 * time.Microsecond},
	}
	rb, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanBatch < 2 {
		t.Fatalf("mean batch %.2f, want ≥2 under saturation", rb.MeanBatch)
	}
	if rb.Batches == 0 || float64(rb.Completed)/float64(rb.Batches) != rb.MeanBatch {
		t.Fatalf("batch accounting: completed %d batches %d mean %.3f", rb.Completed, rb.Batches, rb.MeanBatch)
	}
	single := base
	single.Server = ServerConfig{Service: ServiceConfig{Mean: time.Millisecond}}
	rs, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Throughput <= rs.Throughput {
		t.Fatalf("batching did not raise throughput: %.0f vs %.0f req/s", rb.Throughput, rs.Throughput)
	}
}

func TestBatchDelayDispatchesPartialBatch(t *testing.T) {
	// A trickle that never fills BatchMax must still be served once the
	// oldest request has waited BatchDelay — not starve forever.
	res, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 10},
		Server:   ServerConfig{BatchMax: 64, BatchDelay: 50 * time.Millisecond, Service: ServiceConfig{Mean: time.Millisecond}},
		Duration: 2 * time.Second,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Offered || res.Completed == 0 {
		t.Fatalf("partial batches starved: %+v", res)
	}
	// Every latency carries the deadline wait, bounded by
	// BatchDelay + service + slack.
	if res.MaxLatency > 150*time.Millisecond {
		t.Fatalf("max latency %v exceeds deadline+service bound", res.MaxLatency)
	}
}

func TestClosedLoop(t *testing.T) {
	res, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 1000},
		Server:   ServerConfig{Servers: 2, Service: ServiceConfig{Mean: time.Millisecond}},
		Duration: time.Second,
		Seed:     8,
		Mode:     ClosedLoop,
		Clients:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ClosedLoop || res.Completed == 0 {
		t.Fatalf("closed loop did not run: %+v", res)
	}
	if res.Offered != res.Completed+res.Dropped {
		t.Fatalf("conservation: %+v", res)
	}
	// 4 clients on 2 servers with deterministic 1 ms service: each
	// completion latency is wait+service ≈ 2 ms, ~2000 completions/s.
	if res.Completed < 1500 || res.Completed > 2500 {
		t.Fatalf("closed-loop completions %d, want ≈2000", res.Completed)
	}
}

func TestServiceDrawIsPerRequest(t *testing.T) {
	// Request i's service cost must depend only on (seed, i) — never on
	// execution order or server topology — so a request costs the same
	// whether it is served open-loop, closed-loop, batched, or last.
	s1 := &sim{cfg: ServerConfig{Service: ServiceConfig{Mean: 2 * time.Millisecond, Sigma: 0.8}}, seed: 31}
	s2 := &sim{cfg: ServerConfig{Servers: 8, Service: ServiceConfig{Mean: 2 * time.Millisecond, Sigma: 0.8}}, seed: 31}
	for i := 0; i < 1000; i++ {
		if a, b := s1.serviceDraw(i), s2.serviceDraw(i); a != b {
			t.Fatalf("request %d draw differs across configs: %v vs %v", i, a, b)
		}
	}
	if s1.serviceDraw(0) == s1.serviceDraw(1) {
		t.Fatalf("distinct requests share a service draw")
	}
}

func TestRunErrors(t *testing.T) {
	base := Options{Arrival: ArrivalConfig{Rate: 100}, Duration: time.Second}
	for name, mutate := range map[string]func(*Options){
		"zero duration": func(o *Options) { o.Duration = 0 },
		"bad mode":      func(o *Options) { o.Mode = "half-open" },
		"bad arrivals":  func(o *Options) { o.Arrival.Rate = -1 },
		"neg servers":   func(o *Options) { o.Server.Servers = -1 },
		"neg service":   func(o *Options) { o.Server.Service.Mean = -time.Second },
		"stall overlap": func(o *Options) {
			o.Server.Stalls = []Stall{{At: time.Second, Dur: time.Second}, {At: 0, Dur: time.Second}}
		},
		"zero-dur stall": func(o *Options) { o.Server.Stalls = []Stall{{At: 0, Dur: 0}} },
	} {
		o := base
		mutate(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("%s: Run accepted invalid options", name)
		} else if !errors.Is(err, ErrBadServer) && !errors.Is(err, ErrBadArrivals) {
			t.Errorf("%s: err = %v, want ErrBadServer/ErrBadArrivals", name, err)
		}
	}
}

func TestHistReuse(t *testing.T) {
	o := Options{
		Arrival:  ArrivalConfig{Rate: 300},
		Server:   ServerConfig{Service: ServiceConfig{Mean: time.Millisecond}},
		Duration: time.Second,
		Seed:     2,
	}
	fresh, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	reused := fresh.Hist // pass the same histogram back in
	o.Seed = 3
	second, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	_ = second
	o.Hist = reused
	third, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if third.Hist != reused {
		t.Fatalf("supplied histogram was not used")
	}
	if third.Hist.Count() != uint64(third.Completed) {
		t.Fatalf("reused histogram not reset: %d records for %d completions",
			third.Hist.Count(), third.Completed)
	}
	if math.IsNaN(third.Hist.Quantile(0.5)) {
		t.Fatalf("reused histogram empty after run")
	}
}

func TestRunAllocsIndependentOfArrivals(t *testing.T) {
	// Arrivals stream past the event queue and batches reuse their slots,
	// so an epoch's allocations do not grow with its request count: a
	// 40× busier open-loop epoch allocates exactly as much. The queue
	// is bounded and the stall fills it at either rate, so both runs
	// grow it to the same size.
	allocs := func(rate float64) float64 {
		o := Options{
			Arrival: ArrivalConfig{Rate: rate},
			Server: ServerConfig{
				Servers:    2,
				QueueCap:   64,
				BatchMax:   4,
				BatchDelay: time.Millisecond,
				Service:    ServiceConfig{Mean: time.Millisecond, Sigma: 0.5, PerItem: 100 * time.Microsecond},
				Stalls:     []Stall{{At: 500 * time.Millisecond, Dur: 300 * time.Millisecond}},
			},
			Duration: time.Second,
			Seed:     5,
			Hist:     &stats.LogHistogram{},
		}
		var res Result
		n := testing.AllocsPerRun(5, func() {
			var err error
			if res, err = Run(o); err != nil {
				t.Fatal(err)
			}
		})
		if res.Batches == 0 || res.Dropped == 0 {
			t.Fatalf("rate %g: run does not batch and fill the queue: %+v", rate, res)
		}
		return n
	}
	low, high := allocs(500), allocs(20000)
	if low != high {
		t.Errorf("allocations per Run: %v at 500 req/s, %v at 20000 req/s; want equal", low, high)
	}
}
