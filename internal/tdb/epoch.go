package tdb

import (
	"sync"

	"mdm/internal/rdf"
)

// epoch is one immutable-after-retirement generation of the store's
// dataset. The current epoch receives writes; a compaction retires it
// and installs a fresh one. Retired epochs stay reachable only while
// readers hold pins on them.
type epoch struct {
	seq  uint64
	ds   *rdf.Dataset
	pins int
}

// Snapshot is a pinned epoch: a handle on the dataset as of PinSnapshot
// time that the compactor will not swap out from under the holder.
// Release it when done (Release is idempotent); an unreleased Snapshot
// keeps the whole retired dataset live in memory.
//
// Pinning isolates the reader from COMPACTION only: writes applied to
// the pinned epoch while it is still current remain visible, matching
// the store's documented non-snapshot read semantics. Once a compaction
// retires the epoch it is frozen, so a cursor pinned before a
// compaction drains exactly its pre-compaction view.
type Snapshot struct {
	s    *Store
	e    *epoch
	once sync.Once
}

// PinSnapshot pins the current epoch and returns its handle.
func (s *Store) PinSnapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.cur.Load()
	e.pins++
	return &Snapshot{s: s, e: e}
}

// Dataset returns the pinned dataset.
func (p *Snapshot) Dataset() *rdf.Dataset { return p.e.ds }

// Epoch returns the pinned epoch's sequence number (monotonic per
// store; bumped by each compaction swap).
func (p *Snapshot) Epoch() uint64 { return p.e.seq }

// Release drops the pin. When the last pin on a retired epoch is
// released, the epoch (and its dataset) becomes collectable.
func (p *Snapshot) Release() {
	p.once.Do(func() {
		p.s.mu.Lock()
		defer p.s.mu.Unlock()
		p.e.pins--
		if p.e != p.s.cur.Load() && p.e.pins == 0 {
			delete(p.s.retired, p.e.seq)
			expPinnedEpochs.Add(-1)
		}
	})
}

// Epoch returns the current epoch's sequence number.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochSeq
}

// RetiredEpochs reports how many compaction-retired epochs are still
// kept alive by outstanding pins (also exported as the
// mdm.tdb.retired_pinned_epochs expvar gauge, process-wide).
func (s *Store) RetiredEpochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.retired)
}

// swapEpochLocked installs ds as the new current epoch. The previous
// epoch is retired; it is retained only if readers still pin it.
// Caller holds s.mu.
func (s *Store) swapEpochLocked(ds *rdf.Dataset) {
	old := s.cur.Load()
	s.epochSeq++
	s.cur.Store(&epoch{seq: s.epochSeq, ds: ds})
	if old.pins > 0 {
		s.retired[old.seq] = old
		expPinnedEpochs.Add(1)
	}
}
