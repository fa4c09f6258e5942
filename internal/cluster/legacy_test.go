package cluster

import (
	"math/bits"
	"sort"
	"testing"
	"time"
)

// This file pins the level-wise per-rank-stream engine against the
// pre-rewrite sequential implementations, kept verbatim below (modulo
// the msgLatency/opCost entry points, which now take the drawing stream
// explicitly). Two contracts are pinned:
//
//  1. On a noise-free (Quiet) system every draw is value-neutral, so the
//     rendezvous computation graph — not the RNG discipline — fully
//     determines the result. New and legacy engines must agree
//     bit-for-bit. This proves the level-wise sweep evaluates the exact
//     same dependency graph as the old high-to-low pass.
//  2. On a noisy system the draws differ (machine stream vs per-rank
//     streams) but the distributions must match: medians and means of
//     Max() over a deterministic seed set agree within tolerance.

func refOpCost(m *Machine, rank int, at time.Duration) time.Duration {
	return m.opCostSrc(m.rng, rank, at)
}

// refReduce is the pre-rewrite Reduce: one high-to-low pass on the
// machine stream.
func refReduce(m *Machine, bytes int, skew []time.Duration) CollectiveResult {
	p := len(m.procs)
	res := CollectiveResult{PerRank: make([]time.Duration, p), Ranks: p}
	if p == 1 {
		return res
	}
	start := make([]time.Duration, p)
	for r := 0; r < p; r++ {
		if skew != nil {
			start[r] = skew[r]
		}
	}
	pow2 := 1 << (bits.Len(uint(p)) - 1)
	extra := p - pow2
	finish := func(r int, at time.Duration) {
		if at > res.PerRank[r] {
			res.PerRank[r] = at
		}
	}
	ready := make([]time.Duration, pow2)
	for r := pow2 - 1; r >= 0; r-- {
		cur := start[r]
		recv := func(src int, srcReady time.Duration) {
			sendReady := srcReady + m.cfg.SendOverhead
			begin := sendReady
			if cur > begin {
				begin = cur
			}
			arrive := begin + m.msgLatency(src, r, bytes, begin)
			finish(src, arrive)
			if arrive > cur {
				cur = arrive
			}
			cur += refOpCost(m, r, cur)
		}
		if r < extra {
			recv(r+pow2, start[r+pow2])
		}
		limit := bits.TrailingZeros(uint(r))
		if r == 0 {
			limit = bits.Len(uint(pow2)) - 1
		}
		for j := 0; j < limit; j++ {
			c := r + 1<<j
			if c < pow2 {
				recv(c, ready[c])
			}
		}
		ready[r] = cur
		finish(r, cur)
	}
	res.Root = res.PerRank[0]
	return res
}

// refBcast is the pre-rewrite binomial broadcast.
func refBcast(m *Machine, bytes int, skew []time.Duration) CollectiveResult {
	p := len(m.procs)
	res := CollectiveResult{PerRank: make([]time.Duration, p), Ranks: p}
	if p == 1 {
		return res
	}
	have := make([]time.Duration, p)
	for r := 1; r < p; r++ {
		have[r] = -1
	}
	if skew != nil {
		have[0] = skew[0]
	}
	for k := 0; 1<<k < p; k++ {
		for r := 0; r < 1<<k && r < p; r++ {
			dst := r + 1<<k
			if dst >= p || have[r] < 0 {
				continue
			}
			sendAt := have[r] + m.cfg.SendOverhead
			if skew != nil && skew[r] > sendAt {
				sendAt = skew[r]
			}
			arrive := sendAt + m.msgLatency(r, dst, bytes, sendAt)
			if skew != nil && skew[dst] > arrive {
				arrive = skew[dst]
			}
			have[dst] = arrive
			if arrive > res.PerRank[dst] {
				res.PerRank[dst] = arrive
			}
			if sendAt > res.PerRank[r] {
				res.PerRank[r] = sendAt
			}
		}
	}
	res.Root = res.Max()
	return res
}

// refBarrier is the pre-rewrite dissemination barrier.
func refBarrier(m *Machine, skew []time.Duration) CollectiveResult {
	p := len(m.procs)
	res := CollectiveResult{PerRank: make([]time.Duration, p), Ranks: p}
	cur := make([]time.Duration, p)
	for r := 0; r < p; r++ {
		if skew != nil {
			cur[r] = skew[r]
		}
	}
	if p == 1 {
		return res
	}
	next := make([]time.Duration, p)
	for k := 0; 1<<k < p; k++ {
		for r := 0; r < p; r++ {
			src := ((r-1<<k)%p + p) % p
			sendAt := cur[src] + m.cfg.SendOverhead
			arrive := sendAt + m.msgLatency(src, r, 1, sendAt)
			if cur[r] > arrive {
				next[r] = cur[r]
			} else {
				next[r] = arrive
			}
		}
		cur, next = next, cur
	}
	copy(res.PerRank, cur)
	res.Root = res.Max()
	return res
}

// TestLevelSweepMatchesLegacyGraph: on a Quiet system every stochastic
// draw multiplies by exactly 1, so any difference between engines would
// be a difference in the dependency graph itself. Bit-identity required.
func TestLevelSweepMatchesLegacyGraph(t *testing.T) {
	for _, p := range []int{2, 3, 13, 16, 64, 100} {
		skew := make([]time.Duration, p)
		for r := range skew {
			skew[r] = time.Duration((r*37)%11) * time.Microsecond
		}
		for name, pair := range map[string]struct {
			ref func(*Machine) CollectiveResult
			new func(*Machine) CollectiveResult
		}{
			"reduce": {
				func(m *Machine) CollectiveResult { return refReduce(m, 64, skew) },
				func(m *Machine) CollectiveResult { return m.Reduce(64, skew) },
			},
			"bcast": {
				func(m *Machine) CollectiveResult { return refBcast(m, 64, skew) },
				func(m *Machine) CollectiveResult { return m.Bcast(64, skew) },
			},
			"barrier": {
				func(m *Machine) CollectiveResult { return refBarrier(m, skew) },
				func(m *Machine) CollectiveResult { return m.Barrier(skew) },
			},
		} {
			ref := pair.ref(mustNew(t, Quiet(64, 32), p, 5))
			got := pair.new(mustNew(t, Quiet(64, 32), p, 5))
			if got.Root != ref.Root {
				t.Errorf("%s p=%d: root %v, legacy %v", name, p, got.Root, ref.Root)
			}
			for r := range ref.PerRank {
				if got.PerRank[r] != ref.PerRank[r] {
					t.Fatalf("%s p=%d rank %d: %v, legacy %v",
						name, p, r, got.PerRank[r], ref.PerRank[r])
				}
			}
		}
	}
}

// TestStreamRewriteStatisticalEquivalence: with noise enabled the two
// engines consume different random streams, so individual runs differ,
// but the distribution of collective completion times must not move.
// The seed set is fixed, so the medians/means below are deterministic
// and this test pins the noisy behaviour of the rewrite.
func TestStreamRewriteStatisticalEquivalence(t *testing.T) {
	const p = 64
	const n = 300
	for name, pair := range map[string]struct {
		ref func(*Machine) CollectiveResult
		new func(*Machine) CollectiveResult
	}{
		"reduce": {
			func(m *Machine) CollectiveResult { return refReduce(m, 64, nil) },
			func(m *Machine) CollectiveResult { return m.Reduce(64, nil) },
		},
		"bcast": {
			func(m *Machine) CollectiveResult { return refBcast(m, 64, nil) },
			func(m *Machine) CollectiveResult { return m.Bcast(64, nil) },
		},
		"barrier": {
			func(m *Machine) CollectiveResult { return refBarrier(m, nil) },
			func(m *Machine) CollectiveResult { return m.Barrier(nil) },
		},
	} {
		refMax := make([]float64, 0, n)
		newMax := make([]float64, 0, n)
		for seed := uint64(1); seed <= n; seed++ {
			refMax = append(refMax, pair.ref(mustNew(t, PizDaint(), p, seed)).Max().Seconds())
			newMax = append(newMax, pair.new(mustNew(t, PizDaint(), p, seed)).Max().Seconds())
		}
		sort.Float64s(refMax)
		sort.Float64s(newMax)
		medRef, medNew := refMax[n/2], newMax[n/2]
		if rel := (medNew - medRef) / medRef; rel > 0.10 || rel < -0.10 {
			t.Errorf("%s: median moved %.1f%% (legacy %.3gs, new %.3gs)",
				name, 100*rel, medRef, medNew)
		}
		var sumRef, sumNew float64
		for i := range refMax {
			sumRef += refMax[i]
			sumNew += newMax[i]
		}
		if rel := (sumNew - sumRef) / sumRef; rel > 0.10 || rel < -0.10 {
			t.Errorf("%s: mean moved %.1f%% (legacy %.3gs, new %.3gs)",
				name, 100*rel, sumRef/n, sumNew/n)
		}
	}
}

// TestMillionRankSummarySmoke is the acceptance-criterion sweep: one
// Allreduce across 2^20 ranks in summary mode must complete without
// materializing any O(P) result state.
func TestMillionRankSummarySmoke(t *testing.T) {
	const p = 1 << 20
	cfg := Quiet(1<<14, 64)
	cfg.ResultMode = ModeSummary
	m := mustNew(t, cfg, p, 1)
	res := m.Allreduce(8, nil)
	if res.PerRank != nil {
		t.Fatal("summary mode must not materialize PerRank")
	}
	if res.Summary == nil || res.Summary.Count() != p {
		t.Fatalf("histogram must cover all %d ranks", p)
	}
	if res.Ranks != p {
		t.Errorf("Ranks = %d, want %d", res.Ranks, p)
	}
	if res.Root <= 0 || res.Max() < res.Root {
		t.Errorf("implausible times: root %v max %v", res.Root, res.Max())
	}
	if med := res.Summary.Quantile(0.5); med <= 0 || med > res.Max().Seconds() {
		t.Errorf("implausible median %g", med)
	}
}

// TestSummaryAllocsFlat pins the allocation-flat claim: per-sweep
// allocations in summary mode must not grow with P once the machine's
// scratch pool is warm.
func TestSummaryAllocsFlat(t *testing.T) {
	allocs := func(p int) float64 {
		cfg := Quiet(1<<12, 64)
		cfg.ResultMode = ModeSummary
		m := mustNew(t, cfg, p, 1)
		m.Allreduce(8, nil) // warm the buffer pool
		return testing.AllocsPerRun(3, func() { m.Allreduce(8, nil) })
	}
	small, big := allocs(1<<15), allocs(1<<16)
	if small != big {
		t.Errorf("summary-mode allocations scale with P: %v at 2^15 vs %v at 2^16", small, big)
	}
	if big > 32 {
		t.Errorf("summary-mode sweep allocates too much: %v allocs", big)
	}
}
