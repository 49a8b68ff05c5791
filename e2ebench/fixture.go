package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
)

// baAttach is the Barabási–Albert attachment count: 200,000 nodes give
// the repository's 1M-edge fixture.
const baAttach = 5

// keepFixtures bounds how many fixture sets (one per seed and size) stay
// cached in the work directory.
const keepFixtures = 6

// fixture is the generated input of one run: the BA graph packed as .gcsr
// v1 and v2, and for durable workloads the pristine journal of a warm-up
// stream driven through a real Manager.
type fixture struct {
	v1, v2  string
	journal string // data directory holding journal/, "" if not built
}

// fixtureKey fingerprints everything a fixture set depends on. Bump the
// version when the fixture builder changes.
func fixtureKey(nodes int, seed int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("e2ebench-fixture v1 ba n=%d m=%d seed=%d", nodes, baAttach, seed)))
	return hex.EncodeToString(sum[:8])
}

// loadFixture returns the cached fixture set for (nodes, seed), building
// whatever is missing. Nothing here is timed.
func loadFixture(workDir string, nodes int, seed int64, warm []service.Spec) (*fixture, error) {
	root := filepath.Join(workDir, "fixtures")
	dir := filepath.Join(root, fixtureKey(nodes, seed))
	fx := &fixture{v1: filepath.Join(dir, "ba.v1.gcsr"), v2: filepath.Join(dir, "ba.v2.gcsr")}
	if _, err := os.Stat(dir); err != nil {
		if err := buildAtomically(root, dir, func(tmp string) error {
			g := gen.BarabasiAlbert(nodes, baAttach, seed)
			if err := graph.Save(filepath.Join(tmp, "ba.v1.gcsr"), g); err != nil {
				return err
			}
			return graph.SaveOpts(filepath.Join(tmp, "ba.v2.gcsr"), g, graph.SaveOptions{Version: 2})
		}); err != nil {
			return nil, fmt.Errorf("fixture graph: %w", err)
		}
		pruneFixtures(root)
	}
	now := time.Now()
	if err := os.Chtimes(dir, now, now); err != nil { // most recently used
		return nil, err
	}
	if warm != nil {
		fx.journal = filepath.Join(dir, fmt.Sprintf("journal-%s", warmKey(warm)))
		if _, err := os.Stat(fx.journal); err != nil {
			if err := buildAtomically(dir, fx.journal, func(tmp string) error {
				return warmJournal(fx.v1, tmp, warm)
			}); err != nil {
				return nil, fmt.Errorf("fixture journal: %w", err)
			}
		}
	}
	runtime.GC() // the generator's garbage is not the daemon's heap
	return fx, nil
}

// warmKey fingerprints a warm-up stream.
func warmKey(warm []service.Spec) string {
	h := sha256.New()
	for _, s := range warm {
		fmt.Fprintf(h, "%+v\n", s)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// buildAtomically runs build into a temporary directory beside dst and
// renames it into place, so an interrupted build never leaves a fixture
// that looks complete.
func buildAtomically(parent, dst string, build func(tmp string) error) error {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, ".tmp-")
	if err != nil {
		return err
	}
	if err := build(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	return nil
}

// pruneFixtures removes all but the keepFixtures most recently used
// fixture sets.
func pruneFixtures(root string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var sets []aged
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !e.IsDir() {
			continue
		}
		sets = append(sets, aged{filepath.Join(root, e.Name()), info.ModTime()})
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].mod.After(sets[j].mod) })
	for i := keepFixtures; i < len(sets); i++ {
		os.RemoveAll(sets[i].path)
	}
}

// warmJournal drives a durable Manager through the warm-up stream into
// dataDir and closes it, leaving a journal of completed jobs.
func warmJournal(graphPath, dataDir string, warm []service.Spec) error {
	reg := service.NewRegistry()
	if err := reg.AddFileOpts(graphName, graphPath, graph.OpenOptions{}); err != nil {
		return err
	}
	defer closeGraph(reg)
	mgr, err := service.NewManager(reg, service.Options{MaxWalkers: maxWalkers, DataDir: dataDir, Fsync: true})
	if err != nil {
		return err
	}
	defer mgr.Close()
	for _, spec := range warm {
		v, err := mgr.Submit(spec)
		if err != nil {
			return err
		}
		v, err = mgr.Wait(context.Background(), v.ID)
		if err != nil {
			return err
		}
		if v.State != service.StateDone {
			return fmt.Errorf("warm-up job %s ended %s: %s", v.ID, v.State, v.Error)
		}
	}
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
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
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
