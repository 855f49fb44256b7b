package tdb

import (
	"time"

	"mdm/internal/obs"
)

// Storage-engine metrics. Counters that already exist as mdm.tdb.*
// expvars are mirrored via read-time shims (both registries publish the
// same value); the durations and gauges below are new obs-native
// series. All are process-wide, cumulative across stores, matching the
// expvar convention this package already uses.
var (
	obsWALFsyncs = obs.Default.NewCounter("mdm_tdb_wal_fsyncs_total",
		"WAL fsync calls (SyncAlways appends plus SyncBatch flushes).")
	obsCheckpointDur = obs.Default.NewHistogram("mdm_tdb_checkpoint_duration_seconds",
		"Checkpoint (WAL tail sealed into a delta segment) durations.", obs.DefBuckets)
	obsCompactDur = obs.Default.NewHistogram("mdm_tdb_compact_duration_seconds",
		"Compaction (full rewrite against a fresh dictionary) durations.", obs.DefBuckets)
	// obsSegments tracks the most recently opened/maintained store's
	// live segment count (last-writer-wins across stores; mdmd runs
	// exactly one).
	obsSegments = obs.Default.NewGauge("mdm_tdb_segments",
		"Live segments in the most recently maintained store's manifest.")
)

func init() {
	shim := func(name, help string, v interface{ Value() int64 }) {
		obs.Default.CounterFunc(name, help, func() float64 { return float64(v.Value()) })
	}
	shim("mdm_tdb_wal_torn_bytes_total",
		"WAL bytes trimmed as torn tails at open (mirror of mdm.tdb.wal_torn_bytes).", expTornBytes)
	shim("mdm_tdb_checkpoints_total",
		"Checkpoints completed (mirror of mdm.tdb.checkpoints).", expCheckpoints)
	shim("mdm_tdb_compactions_total",
		"Compactions completed (mirror of mdm.tdb.compactions).", expCompactions)
	// retired_pinned_epochs is a gauge in expvar clothing (pins release),
	// so it mirrors as a gauge here.
	obs.Default.GaugeFunc("mdm_tdb_retired_pinned_epochs",
		"Retired epochs kept alive by pins (mirror of mdm.tdb.retired_pinned_epochs).",
		func() float64 { return float64(expPinnedEpochs.Value()) })
	shim("mdm_tdb_maintenance_errors_total",
		"Background maintenance failures (mirror of mdm.tdb.maintenance_errors).", expMaintErrors)
}

// observeSegments publishes the manifest's live segment count; nil
// (a store that never sealed a segment) counts as zero.
func (s *Store) observeSegments() {
	n := 0
	if s.man != nil {
		n = len(s.man.Segments)
	}
	obsSegments.Set(float64(n))
}

// timeObs returns a closure recording elapsed time into h when called.
func timeObs(h *obs.Histogram) func() {
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0).Seconds()) }
}
