package engine

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"hourglass/internal/checkpoint"
	"hourglass/internal/cloud"
	"hourglass/internal/graph"
	"hourglass/internal/units"
)

// CheckpointManager persists engine snapshots in the durable datastore
// — the reproduction of the paper's §7 modification ("we have modified
// the checkpointing mechanism of Giraph such that it reads/stores
// checkpoints from/to Amazon S3 ... this allows a recovery from a full
// system failure"). Keys are namespaced per job so recurrent executions
// coexist.
//
// The store is allowed to misbehave (see internal/faultinject): every
// blob is sealed with a CRC32 trailer over the codec frames, transient
// store errors are retried with exponential backoff + jitter, and a
// corrupted or partial checkpoint is detected and *skipped* — Load
// falls back to the newest older checkpoint that validates instead of
// silently restoring garbage.
type CheckpointManager struct {
	Store cloud.BlobStore
	// Job is the key namespace, typically "<program>/<dataset>".
	Job string
	// Retry overrides the backoff policy for store operations
	// (nil = cloud.RetryPolicy defaults, seeded from Job).
	Retry *cloud.Retrier
	// Logf receives non-fatal maintenance failures (e.g. Clear errors
	// on the RunDurable success path). Nil logs via the standard
	// library logger.
	Logf func(format string, args ...any)

	retryOnce    sync.Once
	defaultRetry *cloud.Retrier
}

// logf routes non-fatal errors to the configured or default logger.
func (m *CheckpointManager) logf(format string, args ...any) {
	if m.Logf != nil {
		m.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// key is the datastore object name for a superstep's checkpoint.
func (m *CheckpointManager) key(superstep int) string {
	return fmt.Sprintf("ckpt/%s/%08d", m.Job, superstep)
}

// latestKey tracks the most recent complete checkpoint.
func (m *CheckpointManager) latestKey() string {
	return fmt.Sprintf("ckpt/%s/latest", m.Job)
}

// retrier resolves the configured or default backoff policy.
func (m *CheckpointManager) retrier() *cloud.Retrier {
	if m.Retry != nil {
		return m.Retry
	}
	m.retryOnce.Do(func() {
		var seed int64 = 1469598103934665603
		for _, c := range m.Job {
			seed ^= int64(c)
			seed *= 1099511628211
		}
		m.defaultRetry = cloud.NewRetrier(cloud.RetryPolicy{Seed: seed})
	})
	return m.defaultRetry
}

// putRetry uploads a blob, retrying transient store errors. The
// returned time includes the transfer plus backoff delays — even on
// failure, so callers can bill the virtual time burned by the
// exhausted retry budget.
func (m *CheckpointManager) putRetry(key string, data []byte) (units.Seconds, error) {
	var xfer units.Seconds
	delay, err := m.retrier().Do(func() error {
		t, err := m.Store.Put(key, data)
		xfer = t
		return err
	})
	if err != nil {
		return xfer + delay, fmt.Errorf("engine: checkpoint upload %q: %w", key, err)
	}
	return xfer + delay, nil
}

// getRetry downloads a blob, retrying transient store errors.
func (m *CheckpointManager) getRetry(key string) ([]byte, units.Seconds, error) {
	var blob []byte
	var xfer units.Seconds
	delay, err := m.retrier().Do(func() error {
		b, t, err := m.Store.Get(key)
		blob, xfer = b, t
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return blob, xfer + delay, nil
}

// ErrCorruptCheckpoint reports a checkpoint blob whose CRC32 trailer
// is missing, truncated, or does not match the codec frames.
var ErrCorruptCheckpoint = errors.New("engine: corrupt checkpoint frame")

// frame seals engine checkpoint blobs ("HGCR" trailer).
var frame = checkpoint.Codec{Magic: 0x48474352, Corrupt: ErrCorruptCheckpoint}

// Save uploads a snapshot sealed with a CRC32 trailer and advances the
// latest pointer, returning the virtual upload time (retry backoff
// included). Transient store errors are retried; only an exhausted
// retry budget fails the save. The returned time is meaningful even on
// failure: it covers whatever uploads and backoff delays were spent
// before giving up, so callers can bill the partial progress.
func (m *CheckpointManager) Save(s *Snapshot) (units.Seconds, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return 0, err
	}
	t0, err := m.putRetry(m.key(s.Superstep), frame.Seal(buf.Bytes()))
	if err != nil {
		return t0, err
	}
	t1, err := m.putRetry(m.latestKey(), []byte(m.key(s.Superstep)))
	if err != nil {
		return t0 + t1, err
	}
	return t0 + t1, nil
}

// ErrNoCheckpoint reports an empty namespace (fresh job).
var ErrNoCheckpoint = errors.New("engine: no checkpoint available")

// loadKey fetches and validates one checkpoint object.
func (m *CheckpointManager) loadKey(key string) (*Snapshot, units.Seconds, error) {
	blob, t, err := m.getRetry(key)
	if err != nil {
		return nil, 0, err
	}
	payload, err := frame.Open(blob)
	if err != nil {
		return nil, 0, err
	}
	snap, err := ReadSnapshot(bytes.NewReader(payload))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return snap, t, nil
}

// Load fetches the most recent checkpoint that validates, with its
// download time. A corrupted or dangling latest checkpoint is skipped:
// Load scans older checkpoints in the namespace (newest first) and
// restores the first intact one. Only a namespace with no restorable
// checkpoint at all returns ErrNoCheckpoint.
func (m *CheckpointManager) Load() (*Snapshot, units.Seconds, error) {
	// A cleanly absent pointer means "fresh job" (or a completed one —
	// Clear deletes the whole namespace, and even if some blob deletes
	// failed, leftovers must NOT be resurrected by the fallback scan).
	if !m.Store.Exists(m.latestKey()) {
		return nil, 0, ErrNoCheckpoint
	}
	var total units.Seconds
	skip := ""
	if ptr, t, err := m.getRetry(m.latestKey()); err == nil {
		total += t
		skip = string(ptr)
		snap, t1, err := m.loadKey(skip)
		if err == nil {
			return snap, total + t1, nil
		}
	}
	// The pointer or its target is unreadable or corrupt: fall back to
	// the newest older checkpoint that validates.
	snap, t, err := m.scanFallback(skip)
	if err != nil {
		return nil, 0, err
	}
	return snap, total + t, nil
}

// scanFallback walks the job's checkpoint objects newest-first,
// skipping the already-rejected key, and returns the first that
// validates.
func (m *CheckpointManager) scanFallback(skip string) (*Snapshot, units.Seconds, error) {
	prefix := fmt.Sprintf("ckpt/%s/", m.Job)
	latest := m.latestKey()
	var candidates []string
	for _, k := range m.Store.Keys() {
		if !strings.HasPrefix(k, prefix) || k == latest || k == skip {
			continue
		}
		candidates = append(candidates, k)
	}
	// Keys embed the zero-padded superstep, so lexicographic descending
	// order is newest-first.
	sort.Sort(sort.Reverse(sort.StringSlice(candidates)))
	var total units.Seconds
	for _, k := range candidates {
		snap, t, err := m.loadKey(k)
		total += t
		if err != nil {
			continue
		}
		return snap, total, nil
	}
	return nil, 0, ErrNoCheckpoint
}

// Clear removes the latest pointer AND every numbered checkpoint blob
// in the job's namespace. Deleting only the pointer is not enough for
// recurrent jobs: the next execution of the same job writes fresh
// checkpoints under the same namespace, and if its latest pointer is
// ever damaged, Load's fallback scan walks the namespace newest-first
// — where a leftover high-superstep blob from the PREVIOUS execution
// would win and resurrect stale state. Delete failures are collected
// and returned (never swallowed) so callers can log them; the
// namespace may then still hold blobs, which is why RunDurable logs
// rather than ignores the error.
func (m *CheckpointManager) Clear() error {
	var errs []error
	if err := m.Store.Delete(m.latestKey()); err != nil {
		errs = append(errs, fmt.Errorf("engine: clear %q: %w", m.latestKey(), err))
	}
	prefix := fmt.Sprintf("ckpt/%s/", m.Job)
	for _, k := range m.Store.Keys() {
		if !strings.HasPrefix(k, prefix) || k == m.latestKey() {
			continue
		}
		if err := m.Store.Delete(k); err != nil {
			errs = append(errs, fmt.Errorf("engine: clear %q: %w", k, err))
		}
	}
	return errors.Join(errs...)
}

// RunDurable executes prog with periodic durable checkpoints every
// `every` supersteps, resuming from the latest checkpoint if one
// exists. It is the full execution loop of the paper's Figure 2 at the
// engine level: run → checkpoint → (crash?) → reload → continue. The
// returned virtual I/O time is the sum of checkpoint uploads (compute
// time is the caller's concern — the perfmodel prices it). On a save
// failure, the I/O time already spent — including the failed save's
// partial uploads and exhausted retry backoff — is returned alongside
// the error so callers can bill the partial progress.
func (m *CheckpointManager) RunDurable(g *graph.Graph, prog Program, cfg Config, every int) (Result, units.Seconds, error) {
	if every <= 0 {
		return Result{}, 0, fmt.Errorf("engine: checkpoint interval %d", every)
	}
	var ioTime units.Seconds
	snap, loadTime, err := m.Load()
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		// Fresh start.
	case err != nil:
		return Result{}, 0, err
	default:
		ioTime += loadTime
	}

	for {
		runCfg := cfg
		runCfg.StopAfter = every
		var res Result
		var err error
		if snap == nil {
			res, err = Run(g, prog, runCfg)
		} else {
			res, err = Resume(g, prog, snap, runCfg)
		}
		switch {
		case err == nil:
			if cerr := m.Clear(); cerr != nil {
				m.logf("engine: checkpoint GC for job %q incomplete: %v", m.Job, cerr)
			}
			return res, ioTime, nil
		case errors.Is(err, ErrPaused):
			saveTime, serr := m.Save(res.Snapshot)
			ioTime += saveTime
			if serr != nil {
				return Result{}, ioTime, serr
			}
			snap = res.Snapshot
		default:
			return Result{}, ioTime, err
		}
	}
}
