// Package tdb provides durable storage for an rdf.Dataset, replacing the
// Jena TDB persistence engine used by the original MDM implementation.
//
// The design is an epoch-based segment store in front of a write-ahead
// log:
//
//   - MANIFEST lists the live, immutable on-disk segments (see the
//     segment subpackage: a dict block of interned terms plus ID-triple
//     blocks per graph, checksummed) in apply order;
//   - wal.jsonl holds one JSON record per Apply batch since the last
//     seal.
//
// Open loads the manifest's segments (binary decode straight into the
// dataset dictionary and ID indexes — no Turtle parsing) and then
// replays the WAL tail, so startup is O(segments + WAL tail), not
// O(full history re-parse). Checkpoint seals the WAL tail into a new
// delta segment in O(tail); Compact rewrites the live dataset against a
// fresh dictionary into a single full segment, dropping dead dictionary
// terms and tombstoned triples, and swaps the compacted dataset in as a
// new EPOCH — readers that pinned the previous epoch (PinSnapshot) keep
// draining their snapshot untouched. Both publish the manifest with a
// temp-file + rename, so a crash mid-seal leaves the previous manifest
// + WAL recovery point intact.
//
// Apply commits a batch of mutations (one facade operation of the mdm
// package) as ONE WAL record, so recovery replays all of the batch or
// none of it; the single-quad methods are one-op batches.
//
// # Durability
//
// By default WAL appends are flushed to the OS (bufio.Flush) but NOT
// fsynced: a process crash loses at most the record being written, but
// an OS crash or power failure can lose any records the kernel had not
// yet written back. Opt into fsync durability with Options.Sync:
// SyncAlways fsyncs every append; SyncBatch fsyncs at most every
// Options.SyncInterval. A truncated final WAL record (torn write during
// a crash) is tolerated and trimmed at the next Open; an undecodable
// record with further records after it is mid-file corruption and fails
// Open with the byte offset.
package tdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/tdb/segment"
)

const walFile = "wal.jsonl"

// Package-wide expvar counters (cumulative across stores in a process),
// served by mdmd at GET /debug/vars.
var (
	expTornBytes    = expvar.NewInt("mdm.tdb.wal_torn_bytes")
	expCheckpoints  = expvar.NewInt("mdm.tdb.checkpoints")
	expCompactions  = expvar.NewInt("mdm.tdb.compactions")
	expPinnedEpochs = expvar.NewInt("mdm.tdb.retired_pinned_epochs")
)

// SyncMode selects WAL fsync behavior; see Options.Sync.
type SyncMode int

const (
	// SyncNone (default) flushes appends to the OS without fsync.
	SyncNone SyncMode = iota
	// SyncAlways fsyncs the WAL after every append.
	SyncAlways
	// SyncBatch marks the WAL dirty on append and fsyncs it from a
	// background goroutine every Options.SyncInterval.
	SyncBatch
)

// Options configures OpenWith. The zero value reproduces Open's
// historical behavior: no fsync, no background maintenance.
type Options struct {
	// Sync selects the WAL durability mode.
	Sync SyncMode
	// SyncInterval is the SyncBatch flush period (default 5ms).
	SyncInterval time.Duration
	// CompactInterval, when > 0, starts the background compactor: every
	// interval the store seals the WAL tail once it reaches
	// CompactWALThreshold records and runs a full compaction when the
	// dictionary or segment list has grown enough (see maintain).
	CompactInterval time.Duration
	// CompactWALThreshold is the WAL record count that triggers a
	// background checkpoint (default 4096).
	CompactWALThreshold int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 5 * time.Millisecond
	}
	if o.CompactWALThreshold <= 0 {
		o.CompactWALThreshold = 4096
	}
	return o
}

// Store is a durable rdf.Dataset. All mutations must go through the
// Store's methods so they hit the WAL; reads can use the Dataset
// directly (or PinSnapshot for compaction-isolated reads). Store is
// safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	// cur is the live epoch (swapped under mu, loaded lock-free by
	// Dataset); retired holds epochs replaced by a compaction that still
	// have outstanding pins.
	cur      atomic.Pointer[epoch]
	retired  map[uint64]*epoch
	epochSeq uint64

	// man is the segment manifest; nil for a store that has never sealed
	// a segment.
	man *segment.Manifest

	wal        *os.File
	walBuf     *bufio.Writer
	walRecords int
	walDirty   bool // SyncBatch: append since last fsync
	closed     bool

	// lastFullDict is the dictionary size right after the last full
	// compaction (or open).
	lastFullDict int

	bgStop, bgDone     chan struct{}
	syncStop, syncDone chan struct{}
}

// Op is one mutation of an Apply batch.
type Op = segment.Op

// Op kinds.
const (
	OpAdd    = segment.OpAdd
	OpRemove = segment.OpRemove
	OpDrop   = segment.OpDrop // Quad.Graph names the dropped graph
	OpPrefix = segment.OpPrefix
)

// walRecord is one logged mutation, or a batch of them.
type walRecord struct {
	Op     string      `json:"op"` // add | remove | drop | prefix | batch
	Quad   *jsonQuad   `json:"quad,omitempty"`
	Graph  *jsonTerm   `json:"graph,omitempty"`
	Prefix string      `json:"prefix,omitempty"`
	NS     string      `json:"ns,omitempty"`
	Ops    []walRecord `json:"ops,omitempty"` // batch
}

// jsonTerm is the WAL encoding of an rdf.Term.
type jsonTerm struct {
	K  uint8  `json:"k"`
	V  string `json:"v"`
	DT string `json:"dt,omitempty"`
	LG string `json:"lg,omitempty"`
}

// jsonQuad serializes as a compact JSON array of 3 or 4 terms via the
// custom (Un)MarshalJSON methods below.
type jsonQuad struct {
	S, P, O jsonTerm
	G       *jsonTerm
}

func encTerm(t rdf.Term) jsonTerm {
	return jsonTerm{K: uint8(t.Kind), V: t.Value, DT: t.Datatype, LG: t.Lang}
}

func decTerm(j jsonTerm) rdf.Term {
	return rdf.Term{Kind: rdf.TermKind(j.K), Value: j.V, Datatype: j.DT, Lang: j.LG}
}

func encQuad(q rdf.Quad) *jsonQuad {
	jq := &jsonQuad{S: encTerm(q.S), P: encTerm(q.P), O: encTerm(q.O)}
	if !q.Graph.IsZero() {
		g := encTerm(q.Graph)
		jq.G = &g
	}
	return jq
}

func (jq *jsonQuad) quad() rdf.Quad {
	q := rdf.Quad{Triple: rdf.T(decTerm(jq.S), decTerm(jq.P), decTerm(jq.O))}
	if jq.G != nil {
		q.Graph = decTerm(*jq.G)
	}
	return q
}

// MarshalJSON flattens the quad to a compact array-of-terms form.
func (jq *jsonQuad) MarshalJSON() ([]byte, error) {
	arr := []jsonTerm{jq.S, jq.P, jq.O}
	if jq.G != nil {
		arr = append(arr, *jq.G)
	}
	return json.Marshal(arr)
}

// UnmarshalJSON reverses MarshalJSON.
func (jq *jsonQuad) UnmarshalJSON(b []byte) error {
	var arr []jsonTerm
	if err := json.Unmarshal(b, &arr); err != nil {
		return err
	}
	if len(arr) != 3 && len(arr) != 4 {
		return fmt.Errorf("tdb: quad record has %d terms", len(arr))
	}
	jq.S, jq.P, jq.O = arr[0], arr[1], arr[2]
	if len(arr) == 4 {
		g := arr[3]
		jq.G = &g
	}
	return nil
}

// Open loads (or creates) a store rooted at dir with default options.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith loads (or creates) a store rooted at dir. If
// opts.CompactInterval > 0 the background compactor is started.
func OpenWith(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tdb: create dir: %w", err)
	}
	ds := rdf.NewDataset()
	s := &Store{
		dir:      dir,
		opts:     opts,
		retired:  make(map[uint64]*epoch),
		epochSeq: 1,
	}

	man, err := segment.LoadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("tdb: %w", err)
	}
	if man != nil {
		// Sweep crash leftovers (sealed-but-unpublished segments, temp
		// manifests), then stream-load the live segments.
		man.Sweep(dir)
		for _, name := range man.Segments {
			if _, err := segment.LoadFile(filepath.Join(dir, name), ds); err != nil {
				return nil, fmt.Errorf("tdb: corrupt segment: %w", err)
			}
		}
		s.man = man
	}

	s.cur.Store(&epoch{seq: s.epochSeq, ds: ds})
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tdb: open wal: %w", err)
	}
	s.wal = wal
	s.walBuf = bufio.NewWriter(wal)
	s.lastFullDict = ds.Dict().Len()

	if opts.Sync == SyncBatch {
		s.syncStop, s.syncDone = make(chan struct{}), make(chan struct{})
		go s.syncLoop()
	}
	if opts.CompactInterval > 0 {
		s.StartAutoCompact(opts.CompactInterval, opts.CompactWALThreshold)
	}
	s.observeSegments()
	return s, nil
}

// replayWAL applies the WAL tail to the live dataset. A torn FINAL
// record (crash mid-append) is tolerated: the torn bytes are counted on
// expvar and trimmed from the file so later appends cannot bury
// corruption mid-file. An undecodable record with more data after it is
// mid-file corruption and fails the open, naming the byte offset.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("tdb: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	ds := s.cur.Load().ds
	var cache graphCache
	var buf []Op
	var off int64 // offset of the first byte not yet known-good
	for {
		line, rerr := r.ReadBytes('\n')
		rec := bytes.TrimSpace(line)
		if len(rec) > 0 {
			var w walRecord
			if uerr := json.Unmarshal(rec, &w); uerr != nil {
				// Torn tail or mid-file corruption? Anything after this
				// line means the file kept growing past the bad record,
				// which a torn final append cannot produce.
				rest, _ := io.ReadAll(r)
				if len(bytes.TrimSpace(rest)) > 0 {
					return fmt.Errorf("tdb: corrupt wal record at byte offset %d: %w", off, uerr)
				}
				torn := int64(len(line) + len(rest))
				expTornBytes.Add(torn)
				if terr := os.Truncate(path, off); terr != nil {
					return fmt.Errorf("tdb: trim torn wal tail: %w", terr)
				}
				return nil
			}
			buf = w.ops(buf[:0])
			for _, op := range buf {
				cache.apply(ds, op)
			}
			s.walRecords++
		}
		off += int64(len(line))
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("tdb: read wal: %w", rerr)
		}
	}
}

// graphCache memoizes the most recent Dataset.Graph resolution: WAL
// replay and facade batches mutate one named graph at a time, so this
// skips a dataset lookup per op.
type graphCache struct {
	name  rdf.Term
	graph *rdf.Graph
}

func (c *graphCache) get(ds *rdf.Dataset, name rdf.Term) *rdf.Graph {
	if c.graph == nil || c.name != name {
		c.graph = ds.Graph(name)
		c.name = name
	}
	return c.graph
}

// ApplyOps applies ops in order to a dataset that no Store owns (the
// in-memory mdm systems write this way), validating like Apply: an
// invalid quad rejects the batch before any op is applied.
func ApplyOps(ds *rdf.Dataset, ops ...Op) error {
	if err := validate(ops); err != nil {
		return err
	}
	var c graphCache
	for _, op := range ops {
		c.apply(ds, op)
	}
	return nil
}

func validate(ops []Op) error {
	for _, op := range ops {
		if op.Kind == OpAdd && !op.Quad.Triple.Valid() {
			return fmt.Errorf("tdb: invalid quad %s", op.Quad)
		}
	}
	return nil
}

func (c *graphCache) apply(ds *rdf.Dataset, op Op) bool {
	switch op.Kind {
	case OpAdd:
		added, _ := c.get(ds, op.Quad.Graph).Add(op.Quad.Triple)
		return added
	case OpRemove:
		// Removing from a graph that does not exist must stay a no-op:
		// resolving it through Dataset.Graph would create the graph and
		// bump Dataset.Version for nothing.
		g, ok := ds.Lookup(op.Quad.Graph)
		return ok && g.Remove(op.Quad.Triple)
	case OpDrop:
		c.graph = nil
		return ds.DropGraph(op.Quad.Graph)
	case OpPrefix:
		ds.Prefixes().Bind(op.Prefix, op.NS)
		return true
	}
	return false
}

// record encodes one op for the WAL.
func record(op Op) walRecord {
	switch op.Kind {
	case OpAdd:
		return walRecord{Op: "add", Quad: encQuad(op.Quad)}
	case OpRemove:
		return walRecord{Op: "remove", Quad: encQuad(op.Quad)}
	case OpDrop:
		g := encTerm(op.Quad.Graph)
		return walRecord{Op: "drop", Graph: &g}
	}
	return walRecord{Op: "prefix", Prefix: op.Prefix, NS: op.NS}
}

// ops appends the record's ops (a batch's in order) to dst.
func (w walRecord) ops(dst []Op) []Op {
	switch w.Op {
	case "add", "remove":
		if w.Quad != nil {
			kind := OpAdd
			if w.Op == "remove" {
				kind = OpRemove
			}
			dst = append(dst, Op{Kind: kind, Quad: w.Quad.quad()})
		}
	case "drop":
		if w.Graph != nil {
			dst = append(dst, Op{Kind: OpDrop, Quad: rdf.Quad{Graph: decTerm(*w.Graph)}})
		}
	case "prefix":
		dst = append(dst, Op{Kind: OpPrefix, Prefix: w.Prefix, NS: w.NS})
	case "batch":
		for _, sub := range w.Ops {
			dst = sub.ops(dst)
		}
	}
	return dst
}

func (s *Store) append(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("tdb: encode wal record: %w", err)
	}
	if _, err := s.walBuf.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("tdb: append wal: %w", err)
	}
	if err := s.walBuf.Flush(); err != nil {
		return fmt.Errorf("tdb: flush wal: %w", err)
	}
	switch s.opts.Sync {
	case SyncAlways:
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
		obsWALFsyncs.Inc()
	case SyncBatch:
		s.walDirty = true
	}
	s.walRecords++
	return nil
}

// syncLoop is the SyncBatch flusher: fsync the WAL at most once per
// SyncInterval, and only when an append happened since the last fsync.
// The fsync runs outside the store lock, so writers and readers do not
// wait for the disk; an append racing it re-marks the WAL dirty.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		dirty := !s.closed && s.walDirty
		s.walDirty = false
		s.mu.Unlock()
		if dirty {
			_ = s.wal.Sync()
			obsWALFsyncs.Inc()
		}
	}
}

// Dataset returns the live dataset (the current epoch). Mutate only
// through Store methods. After a compaction this returns a DIFFERENT
// dataset; long-running readers that must not observe the swap should
// use PinSnapshot.
func (s *Store) Dataset() *rdf.Dataset { return s.cur.Load().ds }

// Apply commits ops as one unit: they are applied in order under the
// store lock and logged as ONE WAL record, so recovery replays all of
// them or none. Ops that change nothing (re-adding a present quad,
// removing an absent one) are not logged, and a batch that changes
// nothing writes no record. An invalid quad rejects the whole batch
// before any op is applied.
func (s *Store) Apply(ops ...Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.applyLocked(ops)
	return err
}

// applyLocked is Apply under s.mu, reporting how many ops changed the
// dataset.
func (s *Store) applyLocked(ops []Op) (int, error) {
	if s.closed {
		return 0, errors.New("tdb: store is closed")
	}
	if err := validate(ops); err != nil {
		return 0, err
	}
	ds := s.cur.Load().ds
	var cache graphCache
	recs := make([]walRecord, 0, len(ops))
	for _, op := range ops {
		if cache.apply(ds, op) {
			recs = append(recs, record(op))
		}
	}
	switch len(recs) {
	case 0:
		return 0, nil
	case 1:
		return 1, s.append(recs[0])
	}
	return len(recs), s.append(walRecord{Op: "batch", Ops: recs})
}

// AddQuad durably inserts a quad.
func (s *Store) AddQuad(q rdf.Quad) error {
	return s.Apply(Op{Kind: OpAdd, Quad: q})
}

// AddTriple durably inserts a triple into the default graph.
func (s *Store) AddTriple(t rdf.Triple) error {
	return s.AddQuad(rdf.Quad{Triple: t})
}

// RemoveQuad durably removes a quad, reporting whether it was present.
// Removing from a named graph that does not exist is a no-op: it does
// not create the graph (and so does not bump Dataset.Version or
// invalidate plan caches).
func (s *Store) RemoveQuad(q rdf.Quad) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.applyLocked([]Op{{Kind: OpRemove, Quad: q}})
	return n > 0, err
}

// DropGraph durably removes an entire named graph.
func (s *Store) DropGraph(name rdf.Term) error {
	return s.Apply(Op{Kind: OpDrop, Quad: rdf.Quad{Graph: name}})
}

// BindPrefix durably registers a prefix binding.
func (s *Store) BindPrefix(prefix, ns string) error {
	return s.Apply(Op{Kind: OpPrefix, Prefix: prefix, NS: ns})
}

// WALRecords returns the number of WAL records since the last seal
// (including records replayed at Open).
func (s *Store) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// Close stops background maintenance, flushes and closes the WAL. The
// store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
	}
	if s.syncStop != nil {
		close(s.syncStop)
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walBuf.Flush(); err != nil {
		s.wal.Close()
		return err
	}
	if s.opts.Sync != SyncNone {
		_ = s.wal.Sync()
	}
	return s.wal.Close()
}
