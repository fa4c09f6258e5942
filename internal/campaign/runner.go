package campaign

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/htest"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// boundaryAlpha is the significance level of the suspend/resume
// boundary drift check (Pettitt across the combined stream).
const boundaryAlpha = 0.01

// Run executes a fully journaled campaign in dir: collection events are
// made durable chunk by chunk, so an interruption at any point — Ctrl-C,
// OOM, power loss — leaves a resumable journal (a crash costs at most
// the unsealed chunk, which Resume re-measures deterministically).
// Interruption surfaces as Result.Stop == bench.StopInterrupted.
func Run(ctx context.Context, dir string, m Manifest, plan bench.Plan, measure func() (float64, error)) (bench.Result, error) {
	return RunOpts(ctx, dir, m, plan, measure, JournalOptions{})
}

// RunOpts is Run with explicit journal options. The group-commit width
// is storage, not experiment identity: the journal retains the same
// records whatever the width, and the report is byte-identical.
func RunOpts(ctx context.Context, dir string, m Manifest, plan bench.Plan,
	measure func() (float64, error), opt JournalOptions) (bench.Result, error) {
	ctx, span := telemetry.StartSpan(ctx, "campaign", filepath.Base(dir))
	defer span.End()
	j, err := CreateJournal(dir, m, opt)
	if err != nil {
		return bench.Result{}, err
	}
	defer j.Close()
	plan.Record = j
	res, err := bench.RunErrCtx(ctx, plan, measure)
	if cerr := j.Close(); err == nil && cerr != nil {
		// A failed final seal means the journal's tail was not made
		// durable — surface it rather than return a result whose journal
		// silently lags it.
		err = cerr
	}
	return res, err
}

// ResumeOptions tunes Resume for the nature of the measure source. The
// zero value is correct for deterministic sources (seeded simulated
// machines): the source is fast-forwarded through the journaled number
// of invocations and the recovered samples are re-verified against
// re-measurement, making resume bit-for-bit.
type ResumeOptions struct {
	// NoFastForward skips replaying measure invocations. Set it for
	// nondeterministic (wall-clock) measure sources, where replay buys
	// nothing; the resumed stream then continues from fresh draws and
	// the boundary drift check is the integrity signal. Implies
	// NoVerify.
	NoFastForward bool
	// NoVerify fast-forwards without comparing replayed values against
	// the journal.
	NoVerify bool
	// Journal tunes the journal writer for the appended continuation.
	Journal JournalOptions
}

// ResumeInfo reports what Resume recovered and verified.
type ResumeInfo struct {
	// PriorSamples is the number of observations recovered from the
	// journal; the resumed result's first PriorSamples retained
	// observations are exactly these.
	PriorSamples int
	// Torn reports that a torn/corrupt tail record was dropped during
	// replay (the expected signature of a crash mid-append).
	Torn bool
	// FastForwarded is the number of measure invocations replayed to
	// restore the deterministic source's RNG position.
	FastForwarded int
	// ReplayChecked and ReplayMismatched count recovered samples that
	// were re-verified against re-measurement during fast-forward. Any
	// mismatch means the environment or code drifted since the
	// original run and resume is refused.
	ReplayChecked    int
	ReplayMismatched int
	// Boundary is Pettitt's change-point test over the combined
	// pre/post-resume stream; BoundaryDrift reports a significant shift
	// localized at the suspend/resume boundary — the environment
	// changed across the interruption and the resumed half must be
	// quarantined rather than pooled (Rule 6).
	Boundary      htest.ChangePoint
	BoundaryDrift bool
	// Findings carries the audit findings of the resume: Rule 9
	// violations on refusal, a Rule 6 warning on boundary drift.
	Findings []rules.Finding
}

// ErrReplayDivergence reports that fast-forward re-measurement did not
// reproduce the journaled samples: the measure source is not in the
// recorded state (changed code, environment, or seed), so the resumed
// samples would not extend the recorded experiment.
var ErrReplayDivergence = fmt.Errorf("%w: replayed samples diverge from journal", ErrManifestDrift)

// Resume continues an interrupted journaled campaign in dir: it replays
// the journal (dropping any torn tail), refuses on manifest drift (a
// Rule 9 violation), restores the measure source's position, preloads
// the recovered collection state, and runs the campaign to completion —
// appending to the same journal. With a deterministic source the final
// retained sample is bit-identical to an uninterrupted run.
//
// current must be rebuilt from the caller's present configuration; its
// hashes are compared against the recorded manifest. The returned
// ResumeInfo carries the recovery accounting and the suspend/resume
// boundary drift check.
func Resume(ctx context.Context, dir string, current Manifest, plan bench.Plan,
	measure func() (float64, error), opt ResumeOptions) (bench.Result, ResumeInfo, error) {
	ctx, span := telemetry.StartSpan(ctx, "campaign", "resume "+filepath.Base(dir))
	defer span.End()
	var info ResumeInfo
	// Verify the manifest before opening for writing: a refused resume
	// must leave the journal byte-for-byte untouched (including any torn
	// tail, which is evidence of how the campaign died).
	recorded, st, err := Load(dir)
	if err != nil {
		return bench.Result{}, info, err
	}
	info.Torn = st.Torn
	prior := st.Samples()
	info.PriorSamples = len(prior)

	if fs, err := CheckResume(recorded, current); err != nil {
		info.Findings = fs
		return bench.Result{}, info, err
	}

	j, _, st, err := OpenJournal(dir, opt.Journal)
	if err != nil {
		return bench.Result{}, info, err
	}
	defer j.Close()

	resume := &bench.ResumeState{Events: st.Events()}
	if !opt.NoFastForward {
		if err := fastForward(resume, st.Records, measure, plan, opt, &info); err != nil {
			return bench.Result{}, info, err
		}
	}

	plan.Record = j
	plan.Resume = resume
	res, err := bench.RunErrCtx(ctx, plan, measure)
	if cerr := j.Close(); err == nil && cerr != nil {
		err = cerr // a failed final seal left the journal's tail volatile
	}
	if err != nil {
		return res, info, err
	}

	// Quarantine check: did the environment drift while the campaign
	// was suspended? Pettitt across the suspend/resume boundary flags a
	// regime shift localized at the seam. Only meaningful when both
	// halves contributed and no outlier removal reindexed the stream.
	if res.OutliersRemoved == 0 && info.PriorSamples > 0 && len(res.Raw) > info.PriorSamples {
		if cp, drift, err := BoundaryShift(res.Raw, info.PriorSamples, boundaryAlpha); err == nil {
			info.Boundary = cp
			info.BoundaryDrift = drift
			if drift {
				info.Findings = append(info.Findings, rules.Finding{
					Rule:     6,
					Severity: rules.Warning,
					Message: fmt.Sprintf("regime shift at the suspend/resume boundary (sample %d, p ≈ %.3g): "+
						"the environment drifted across the interruption; quarantine the resumed half "+
						"instead of pooling it", cp.Index, cp.P),
				})
			}
		}
	}
	return res, info, nil
}

// fastForward replays the journaled number of measure invocations so a
// deterministic source reaches the exact state it held at interruption,
// verifying (unless opted out) that re-measurement reproduces the
// journaled samples bit-for-bit.
func fastForward(resume *bench.ResumeState, recs []Record,
	measure func() (float64, error), plan bench.Plan, opt ResumeOptions, info *ResumeInfo) error {
	// With single-event observations, the journal maps each sample to
	// the measure invocation that produced it; aggregated observations
	// (EventsPerSample > 1) fast-forward without value verification.
	verify := !opt.NoVerify && plan.EventsPerSample <= 1
	wantByCall := map[int]float64{}
	if verify {
		for _, r := range recs {
			if r.Event.Kind == bench.EventSample {
				wantByCall[r.Event.Calls] = r.Event.Value
			}
		}
	}
	for call := 1; call <= resume.Calls(); call++ {
		v, err := replayOne(measure)
		info.FastForwarded++
		if err != nil {
			continue // the original attempt failed here too (or diverged — caught below)
		}
		if want, ok := wantByCall[call]; ok {
			info.ReplayChecked++
			if math.Float64bits(want) != math.Float64bits(v) {
				info.ReplayMismatched++
			}
		}
	}
	if info.ReplayMismatched > 0 {
		info.Findings = append(info.Findings, rules.Finding{
			Rule:     9,
			Severity: rules.Violation,
			Message: fmt.Sprintf("%d of %d replayed samples diverge from the journal: "+
				"the measure source is not in its recorded state", info.ReplayMismatched, info.ReplayChecked),
		})
		return ErrReplayDivergence
	}
	return nil
}

// replayOne runs one fast-forward invocation with panic recovery (the
// original campaign may legitimately have panicked here).
func replayOne(measure func() (float64, error)) (v float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: replayed measure panicked: %v", p)
		}
	}()
	return measure()
}

// BoundaryShift runs Pettitt's change-point test over a combined
// measurement stream and reports whether a significant shift localizes
// at the given boundary index (the suspend/resume seam): within
// max(3, 5%) samples of it. A shift elsewhere is ordinary mid-campaign
// contamination, already covered by Result.ShiftDetected.
func BoundaryShift(xs []float64, boundary int, alpha float64) (htest.ChangePoint, bool, error) {
	return BoundaryShiftWin(xs, boundary, alpha, 0)
}

// BoundaryShiftWin is BoundaryShift with an explicit localization
// window: a significant change-point within win samples of boundary
// counts as boundary drift. win <= 0 selects the default max(3, 5% of
// the stream). Callers whose seams have coarser natural resolution — a
// shard merge, where contamination is unit-granular because executors
// run whole units — pass the unit width.
func BoundaryShiftWin(xs []float64, boundary int, alpha float64, win int) (htest.ChangePoint, bool, error) {
	cp, err := htest.Pettitt(xs)
	if err != nil {
		return htest.ChangePoint{}, false, err
	}
	if !cp.Significant(alpha) {
		return cp, false, nil
	}
	if win <= 0 {
		win = len(xs) / 20
		if win < 3 {
			win = 3
		}
	}
	drift := cp.Index >= boundary-win && cp.Index < boundary+win
	return cp, drift, nil
}
