package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/fleet"
	"loaddynamics/internal/traces"
	"loaddynamics/internal/wal"
)

// Generated state — trained snapshots, the fleet manifest and, for
// telemetry-ingest, a WAL of earlier telemetry — is built from the seed
// alone, outside every timed phase, and cached per (workload, seed, size)
// under the build directory. Every set-up starts from a fresh copy of it.

// families are the trace generators workload series are drawn from.
var families = []traces.Kind{traces.Wikipedia, traces.Google, traces.LCG, traces.Azure, traces.Facebook}

// baseModels is how many distinct LSTMs a generated fleet's snapshots are
// copies of; workload i serves a copy of base model i % baseModels.
const baseModels = 8

// familyOf is the trace family of workload i (that of its base model).
func familyOf(i int) traces.Kind { return families[(i%baseModels)%len(families)] }

// workloadSeries is workload i's arrival series at the 5-minute base
// interval: n values from its family's generator, seeded by (seed, i).
func workloadSeries(seed int64, i, n int) []float64 {
	days := (n + 287) / 288
	s, err := traces.Generate(familyOf(i), days, seed*1_000_003+int64(i))
	if err != nil {
		panic(err) // families and days are valid by construction
	}
	return s.Values[:n]
}

// baseHPs are the base models' hyperparameters, spread over the QuickConfig
// search space. They are fixed rather than drawn from the seed: inference
// cost depends on them alone, so every seed serves the same amount of work
// while the weights and the traffic change with it.
var baseHPs = [baseModels]core.Hyperparams{
	{HistoryLen: 24, CellSize: 16, Layers: 2, BatchSize: 32},
	{HistoryLen: 12, CellSize: 8, Layers: 1, BatchSize: 16},
	{HistoryLen: 6, CellSize: 12, Layers: 2, BatchSize: 64},
	{HistoryLen: 18, CellSize: 4, Layers: 1, BatchSize: 8},
	{HistoryLen: 3, CellSize: 16, Layers: 1, BatchSize: 24},
	{HistoryLen: 24, CellSize: 10, Layers: 1, BatchSize: 48},
	{HistoryLen: 9, CellSize: 14, Layers: 2, BatchSize: 12},
	{HistoryLen: 16, CellSize: 6, Layers: 2, BatchSize: 40},
}

// trainBase trains base model b on a trace of its family drawn from the
// seed.
func trainBase(seed int64, b int) (*core.Model, error) {
	s, err := traces.Generate(families[b%len(families)], 1, seed*104_729+int64(b))
	if err != nil {
		return nil, err
	}
	cfg := core.QuickConfig()
	cfg.Train.Epochs = 4
	cfg.Seed = seed
	split := len(s.Values) * 3 / 4
	return core.TrainSingle(cfg, s.Values[:split], s.Values[split:], baseHPs[b])
}

// stateSpec names one cached piece of generated state.
type stateSpec struct {
	workload  string
	seed      int64
	workloads int // fleet size
	walValues int // earlier telemetry per workload replayed from the WAL (0 = no WAL)
}

func (s stateSpec) dir(root string) string {
	return filepath.Join(root, ".bench_build", "state",
		fmt.Sprintf("%s-s%d-w%d-h%d", s.workload, s.seed, s.workloads, s.walValues))
}

func workloadID(i int) string { return fmt.Sprintf("w%04d-%s", i, familyOf(i)) }

// ensureState makes sure the spec's state exists, generating it in a child
// process (so generation does not count towards this run's peak RSS).
func ensureState(root string, spec stateSpec) (string, error) {
	dir := spec.dir(root)
	if _, err := os.Stat(filepath.Join(dir, "done")); err == nil {
		return dir, nil
	}
	evictStates(filepath.Dir(dir), maxCachedStates-1)
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-root", root, "-gen",
		"-workload", spec.workload, "-seed", fmt.Sprint(spec.seed),
		"-gen-workloads", fmt.Sprint(spec.workloads), "-gen-wal", fmt.Sprint(spec.walValues))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generating state %s: %w", dir, err)
	}
	return dir, nil
}

// maxCachedStates bounds the generated state kept on disk (up to ~100 MB
// each); a run over a new seed evicts the least recently generated.
const maxCachedStates = 6

// evictStates removes the oldest state directories under parent until at
// most keep remain.
func evictStates(parent string, keep int) {
	entries, err := os.ReadDir(parent)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var dirs []aged
	for _, e := range entries {
		if info, err := e.Info(); err == nil && e.IsDir() {
			dirs = append(dirs, aged{filepath.Join(parent, e.Name()), info.ModTime()})
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod.Before(dirs[j].mod) })
	for len(dirs) > keep {
		os.RemoveAll(dirs[0].path)
		dirs = dirs[1:]
	}
}

// generateState writes the spec's state into a temporary directory and
// renames it into place, so an interrupted generation is never mistaken
// for a finished one.
func generateState(root string, spec stateSpec) error {
	dir := spec.dir(root)
	tmp := dir + fmt.Sprintf(".tmp%d", os.Getpid())
	os.RemoveAll(tmp)
	models := make([]*core.Model, baseModels)
	for b := range models {
		m, err := trainBase(spec.seed, b)
		if err != nil {
			return fmt.Errorf("training base model %d: %w", b, err)
		}
		models[b] = m
	}
	fo := fleet.Options{Dir: filepath.Join(tmp, "models"), FS: noSyncFS{wal.OS()}, Logger: discardLogger()}
	if spec.walValues > 0 {
		fo.WAL = wal.Options{Dir: filepath.Join(tmp, "wal"), FS: noSyncFS{wal.OS()}, Sync: wal.SyncOff}
	}
	fl, err := fleet.Open(fo)
	if err != nil {
		return err
	}
	for i := 0; i < spec.workloads; i++ {
		if err := fl.Add(workloadID(i), models[i%baseModels]); err != nil {
			fl.Close()
			return err
		}
	}
	if spec.walValues > 0 {
		if err := writeTelemetry(fl, spec); err != nil {
			fl.Close()
			return err
		}
	}
	fl.Close()
	if err := os.WriteFile(filepath.Join(tmp, "done"), nil, 0o644); err != nil {
		return err
	}
	os.RemoveAll(dir)
	return os.Rename(tmp, dir)
}

// walRecordValues is the number of values in each earlier-telemetry WAL
// record — one, like the live stream's records.
const walRecordValues = 1

// writeTelemetry streams each workload's earlier telemetry through the
// fleet's ingest path, so the WAL holds exactly what a live process would
// have logged.
func writeTelemetry(fl *fleet.Fleet, spec stateSpec) error {
	fl.StartIngest()
	series := make([][]float64, spec.workloads)
	for i := range series {
		series[i] = workloadSeries(spec.seed, i, spec.walValues)
	}
	for off := 0; off < spec.walValues; off += walRecordValues {
		for i, s := range series {
			end := min(off+walRecordValues, len(s))
			for {
				err := fl.EnqueueObserve(workloadID(i), s[off:end])
				if err == nil {
					break
				}
				if err != fleet.ErrIngestQueueFull {
					return err
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if !fl.FlushIngest(time.Minute) {
		return fmt.Errorf("telemetry ingest did not drain")
	}
	return nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		// Flushed here so the program's first WAL fsync does not also pay
		// for writing back the copy.
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// noSyncFS skips fsyncs while generating state: the state is rebuilt from
// the seed if a crash tears it, and thousands of snapshot fsyncs would make
// generation slower than the run itself.
type noSyncFS struct{ wal.FS }

func (n noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }
