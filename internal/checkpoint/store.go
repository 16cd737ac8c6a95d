package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store persists snapshots. The engine calls Save on its checkpoint cadence
// and Latest once per controller restart.
type Store interface {
	// Save persists the snapshot, replacing any previous one. It returns
	// the encoded size in bytes (0 for stores that keep the snapshot
	// in memory without encoding).
	Save(s *Snapshot) (int, error)
	// Latest returns the most recent snapshot, or (nil, nil) when none
	// has been saved. A decode or validation failure is an error — the
	// caller treats both absence and corruption as the fail-safe case.
	Latest() (*Snapshot, error)
}

// MemStore keeps the latest snapshot in memory, unencoded. It is the
// cheap store for in-process crash/restart simulation (no serialization on
// the tick path); FileStore is the durable one.
type MemStore struct {
	last *Snapshot
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save retains the snapshot. The engine builds a fresh snapshot per capture
// (every Export deep-copies its slices), so retaining the pointer is safe.
func (m *MemStore) Save(s *Snapshot) (int, error) {
	if s == nil {
		return 0, fmt.Errorf("checkpoint: save nil snapshot")
	}
	m.last = s
	return 0, nil
}

// Latest returns the retained snapshot ((nil, nil) when none).
func (m *MemStore) Latest() (*Snapshot, error) {
	if m.last == nil {
		return nil, nil
	}
	if err := m.last.Validate(); err != nil {
		return nil, err
	}
	return m.last, nil
}

// FileStore persists the latest snapshot to one file, atomically: each Save
// encodes to a temp file in the same directory and renames it over the
// target, so a crash mid-write leaves the previous intact checkpoint.
type FileStore struct {
	path string
}

// NewFileStore returns a store writing to path.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Path returns the checkpoint file path.
func (f *FileStore) Path() string { return f.path }

// Save atomically replaces the checkpoint file and returns its size.
func (f *FileStore) Save(s *Snapshot) (int, error) {
	b, err := Encode(s)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(f.path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), f.path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return len(b), nil
}

// Latest reads and decodes the checkpoint file ((nil, nil) when absent).
func (f *FileStore) Latest() (*Snapshot, error) {
	b, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", f.path, err)
	}
	return s, nil
}

// ReadFile loads one snapshot from a checkpoint file (for -restore/-replay).
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return s, nil
}
