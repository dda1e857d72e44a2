package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"loaddynamics/internal/nn"
)

// checkpointVersion guards the on-disk checkpoint format. Version 2 added
// the pruned flag and the rung error of successive halving.
const checkpointVersion = 2

// ErrCheckpointMismatch marks a checkpoint that cannot be resumed under
// this build: another format version, another configuration (fingerprint)
// or an undecodable file. Deleting the checkpoint and building afresh is
// the remedy; any other build error is not fixed by a retry.
var ErrCheckpointMismatch = errors.New("checkpoint does not match this build")

// checkpointFile is the JSON schema of a build checkpoint: the model
// database (step 3 of Fig. 6) persisted after every candidate evaluation,
// plus a fingerprint of everything that determines candidate values, so a
// resumed build cannot silently mix results from a different configuration.
type checkpointFile struct {
	Version     int               `json:"version"`
	Fingerprint string            `json:"fingerprint"`
	Entries     []checkpointEntry `json:"entries"`
}

// checkpointEntry is one persisted Candidate. Failed candidates keep their
// error text so a resumed build re-quarantines them without retraining, and
// the Diverged/TimedOut class flags so replay reproduces the original
// outcome classification (errors.Is and trace spans), not a flattened
// generic failure. A pruned candidate keeps its rung error in ValError;
// RungError is set on every candidate that was ranked at its rung, so a
// resumed batch ranks exactly as the interrupted one did.
type checkpointEntry struct {
	HP        Hyperparams `json:"hyperparams"`
	ValError  float64     `json:"val_error"`
	Pruned    bool        `json:"pruned,omitempty"`
	RungError *float64    `json:"rung_error,omitempty"`
	Failed    bool        `json:"failed,omitempty"`
	Diverged  bool        `json:"diverged,omitempty"`
	TimedOut  bool        `json:"timed_out,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// fingerprint hashes every Config field that determines a candidate's
// value: the space, the budget, the seed, the training setup, the scaler
// and the pruning rung. Parallel and Batch change evaluation order, not
// values, so they are excluded — unless pruning is on: then the proposal
// batch size decides which candidates are ranked against each other.
func (c Config) fingerprint() string {
	h := fnv.New64a()
	for _, p := range c.Space.Params {
		fmt.Fprintf(h, "%s/%d/%d/%t|", p.Name, p.Min, p.Max, p.Log)
	}
	fmt.Fprintf(h, "iters=%d init=%d seed=%d scaler=%s windows=%d train=%+v prune=%d",
		c.MaxIters, c.InitPoints, c.Seed, c.Scaler, c.MaxTrainWindows, c.Train, c.PruneEpochs)
	if c.PruneEpochs > 0 {
		fmt.Fprintf(h, " batch=%d", c.roundSize())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// roundSize is the number of points each GP-guided round proposes (see
// bo.Options.Batch): one in the serial search.
func (c Config) roundSize() int {
	switch {
	case c.Parallel <= 1:
		return 1
	case c.Batch > 0:
		return c.Batch
	default:
		return c.Parallel
	}
}

// saveCheckpoint atomically persists the database: write to a temp file in
// the same directory, fsync, then rename over the target, so a crash
// mid-write never corrupts an existing checkpoint.
func saveCheckpoint(path, fingerprint string, db []Candidate) error {
	entries := make([]checkpointEntry, len(db))
	for i, c := range db {
		e := checkpointEntry{HP: c.HP, ValError: c.ValError, Pruned: c.Pruned()}
		if c.ranked {
			e.RungError = &c.rungErr
		}
		if c.Err != nil && !e.Pruned {
			e.Failed = true
			e.Diverged = errors.Is(c.Err, nn.ErrDiverged)
			e.TimedOut = !e.Diverged && errors.Is(c.Err, context.DeadlineExceeded)
			e.Error = c.Err.Error()
		}
		entries[i] = e
	}
	data, err := json.Marshal(checkpointFile{
		Version:     checkpointVersion,
		Fingerprint: fingerprint,
		Entries:     entries,
	})
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: installing checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint written by saveCheckpoint and returns
// its candidates. A missing file is not an error — it returns (nil, nil) so
// "resume" is safe to pass on a first run. An undecodable file and a
// version or fingerprint mismatch are rejected with ErrCheckpointMismatch:
// resuming under a different configuration would stitch together
// incomparable databases.
func loadCheckpoint(path, fingerprint string) ([]Candidate, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint %s: %w: %w", path, ErrCheckpointMismatch, err)
	}
	if cf.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d: %w", path, cf.Version, checkpointVersion, ErrCheckpointMismatch)
	}
	if cf.Fingerprint != fingerprint {
		return nil, fmt.Errorf("core: checkpoint %s was written by a different build configuration (fingerprint %s, want %s) — delete it or match the original settings: %w",
			path, cf.Fingerprint, fingerprint, ErrCheckpointMismatch)
	}
	db := make([]Candidate, len(cf.Entries))
	for i, e := range cf.Entries {
		c := Candidate{HP: e.HP, ValError: e.ValError}
		if e.RungError != nil {
			c.ranked, c.rungErr = true, *e.RungError
		}
		if e.Pruned {
			c.Err = ErrPruned
		} else if e.Failed {
			msg := e.Error
			if msg == "" {
				msg = "candidate failed (reason not recorded)"
			}
			switch {
			case e.Diverged:
				c.Err = fmt.Errorf("%s: %w", msg, nn.ErrDiverged)
			case e.TimedOut:
				c.Err = fmt.Errorf("%s: %w", msg, context.DeadlineExceeded)
			default:
				c.Err = errors.New(msg)
			}
		}
		db[i] = c
	}
	return db, nil
}
