package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
)

// protocols are Figure 2's five EFD protocols, in the paper's order.
var protocols = []struct {
	metric string
	run    func(*experiments.Harness) (experiments.Score, error)
}{
	{"experiments.normal_fold_s", (*experiments.Harness).NormalFold},
	{"experiments.soft_input_s", (*experiments.Harness).SoftInput},
	{"experiments.soft_unknown_s", (*experiments.Harness).SoftUnknown},
	{"experiments.hard_input_s", (*experiments.Harness).HardInput},
	{"experiments.hard_unknown_s", (*experiments.Harness).HardUnknown},
}

// figure2Folds is the outer fold count of the -quick reproduction.
const figure2Folds = 3

// minNormalFold is the normal-fold macro-F the reproduction must reach
// (the paper reports F > 0.95).
const minNormalFold = 0.95

// figure2Phase runs the offline reproduction in-process after efdd has
// stopped: dataset.Generate on the -quick grid (full metric catalog),
// then the five EFD protocols without the Taxonomist baseline —
// sz.figure2Iters times. figure2_cpu_s is the least CPU time an
// iteration took: the work is the same each time, and a shared host's
// neighbours only ever add to it (CPU time as well as wall time, by
// tens of percent in episodes of seconds to minutes). The per-layer
// times are medians. The macro-F values must be
// identical across the iterations and across runs at one seed.
func figure2Phase(o options, sz size, dir string, rep *report) error {
	var total, cpu, steal, gen []float64
	per := make([][]float64, len(protocols))
	var f1 [][]float64 // per protocol: macro-F, then the per-dimension scores
	var ds *dataset.Dataset
	for it := 0; it < sz.figure2Iters; it++ {
		runtime.GC()
		t0, c0 := time.Now(), selfCPU()
		s0, h0 := hostSteal()
		cfg := dataset.DefaultGenConfig()
		cfg.Repeats = sz.figure2Repeats
		cfg.Seed = o.seed
		var err error
		ds, err = dataset.Generate(cfg)
		if err != nil {
			return fmt.Errorf("figure 2 dataset: %w", err)
		}
		gen = append(gen, time.Since(t0).Seconds())
		h := experiments.NewHarness(ds)
		h.Folds = figure2Folds
		var scores [][]float64
		for i, p := range protocols {
			t := time.Now()
			s, err := p.run(h)
			if err != nil {
				return fmt.Errorf("figure 2 %s: %w", p.metric, err)
			}
			per[i] = append(per[i], time.Since(t).Seconds())
			scores = append(scores, macroF(s))
		}
		total = append(total, time.Since(t0).Seconds())
		cpu = append(cpu, selfCPU()-c0)
		s1, h1 := hostSteal()
		steal = append(steal, (s1-s0)/max(h1-h0, 1))
		if f1 == nil {
			f1 = scores
		} else if fmt.Sprint(f1) != fmt.Sprint(scores) {
			return checkf("figure 2 macro-F changed between iterations at seed %d: %v then %v", o.seed, f1, scores)
		}
	}
	if f1[0][0] < minNormalFold {
		return checkf("figure 2 normal-fold macro-F %.4f is below %.2f", f1[0][0], minNormalFold)
	}
	if err := checkAcrossRuns(o, sz, f1); err != nil {
		return err
	}
	var means []float64
	for _, sc := range f1 {
		means = append(means, sc[0])
	}
	rep.set("figure2_cpu_s", slices.Min(cpu))
	rep.set("experiments.figure2_wall_s", median(total))
	rep.set("figure2_macro_f1", mean(means))
	rep.set("dataset.generate_s", median(gen))
	rep.set("dataset.executions", float64(ds.Len()))
	for i, p := range protocols {
		rep.set(p.metric, median(per[i]))
	}
	rss, err := procStatusMiB("/proc/self/status", "VmHWM:")
	if err != nil {
		return err
	}
	rep.set("bench.peak_rss_mb", rss)
	rep.note("figure 2: %d executions; EFD macro-F normal/soft-input/soft-unknown/hard-input/hard-unknown %v; CPU s %v, wall s %v, host steal %v", ds.Len(), roundAll(means, 4), roundAll(cpu, 3), roundAll(total, 3), roundAll(steal, 3))
	if o.trace {
		t := time.Now()
		if _, _, err := core.Fit(ds, core.DefaultFitConfig()); err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		rep.set("core.fit_s", time.Since(t).Seconds())
	}
	return nil
}

// macroF is a protocol's scores as the checks compare them: the
// macro-F, then the per-dimension scores in sorted dimension order.
// For a protocol with dimensions the macro-F is their mean summed in
// that order: Score.EFD sums them in map iteration order
// (experiments.meanOf), so its last bit varies from run to run while
// the per-dimension scores do not.
func macroF(s experiments.Score) []float64 {
	if len(s.PerDimension) == 0 {
		return []float64{s.EFD}
	}
	keys := make([]string, 0, len(s.PerDimension))
	for k := range s.PerDimension {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []float64{0}
	for _, k := range keys {
		out[0] += s.PerDimension[k]
		out = append(out, s.PerDimension[k])
	}
	out[0] /= float64(len(keys))
	return out
}

// checkAcrossRuns compares the macro-F values with those an earlier
// run of the same build recorded for the same seed and size, and
// records them when none did.
func checkAcrossRuns(o options, sz size, f1 [][]float64) error {
	digest, err := treeDigest(o.root)
	if err != nil {
		return err
	}
	path := filepath.Join(o.work, fmt.Sprintf("figure2-seed%d-%dx%d-%s.json", o.seed, sz.figure2Repeats, figure2Folds, digest[:16]))
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		raw, err = json.Marshal(f1)
		if err != nil {
			return err
		}
		return os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return err
	}
	var prev [][]float64
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if fmt.Sprint(prev) != fmt.Sprint(f1) {
		return checkf("figure 2 macro-F at seed %d differs from an earlier run: %v, earlier %v", o.seed, f1, prev)
	}
	return nil
}

// provenanceInfo is printed with every result.
type provenanceInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	TreeDigest string `json:"tree_digest"`
	DataDirFS  string `json:"data_dir_fs"`
}

func provenance(o options, dir string) provenanceInfo {
	p := provenanceInfo{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(o.root),
		DataDirFS:  fsType(dir),
	}
	if d, err := treeDigest(o.root); err == nil {
		p.TreeDigest = d
	}
	return p
}

// gitRev is the checkout's commit, or "none" outside a git checkout;
// the tree digest identifies the sources either way.
func gitRev(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes the Go sources and module files under root, so a
// result names the code it measured even without git.
func treeDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "run.sh" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// fsType names the filesystem holding dir, so fsync costs can be
// read against it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
		0x01021997: "9p", 0x6A656A63: "virtiofs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
