package exp

import "hybridmem/internal/telemetry"

// TelemetryOptions configures epoch sampling for a Runner: setting
// Runner.Telemetry makes every run it executes a sampled run. The zero
// value samples at the telemetry package defaults.
//
// Telemetry is passive: the headline Result of a sampled run is
// identical to the memoized/stored path's result (the engine is
// deterministic), so attaching options never changes what a sweep or
// figure reports. Sampled runs always execute the engine — they bypass
// the memo and the persistent store, like RunTrace — because a recalled
// result has no series to attach.
type TelemetryOptions struct {
	// WindowInstr is the epoch length in retired instructions; <= 0
	// means telemetry.DefaultWindowInstr.
	WindowInstr uint64
	// MaxEpochs bounds each run's epoch ring; <= 0 means
	// telemetry.DefaultMaxEpochs.
	MaxEpochs int
	// OnEpoch, when non-nil, streams each epoch as it closes, tagged
	// with the index of the run within the call's spec slice (0 for
	// single-run methods). It is called from worker goroutines; the
	// callback must be safe for concurrent use.
	OnEpoch func(run int, e telemetry.Epoch)
	// OnSeries, when non-nil, receives each run's settled series as
	// that run finishes, tagged like OnEpoch — the only way a sampled
	// run's series leaves the runner. Like OnEpoch it is called from
	// worker goroutines and must be safe for concurrent use.
	OnSeries func(run int, ser *telemetry.Series)
}

// sampler builds one run's sampler from the options.
func (t *TelemetryOptions) sampler(run int) *telemetry.Sampler {
	o := telemetry.Options{WindowInstr: t.WindowInstr, MaxEpochs: t.MaxEpochs}
	if t.OnEpoch != nil {
		cb := t.OnEpoch
		o.OnEpoch = func(e telemetry.Epoch) { cb(run, e) }
	}
	return telemetry.New(o)
}
