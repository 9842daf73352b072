package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostStamp identifies the machine and code a result was taken on.
type hostStamp struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`      // VCS revision, when built inside a git checkout
	SourceHash string `json:"source_hash"` // digest of the Go sources the run was built from
}

// sameHost reports whether two stamps describe the same machine setup;
// the code identity (Commit, SourceHash) is what comparisons vary.
func (h hostStamp) sameHost(o hostStamp) bool {
	return h.Cores == o.Cores && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.CPUModel == o.CPUModel
}

func stampHost() hostStamp {
	h := hostStamp{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		SourceHash: sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every go.mod and .go file under root (skipping
// dot-directories), so results from the same sources match even where no
// VCS metadata exists.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s %d\n", filepath.ToSlash(p), len(data))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// logRecord is one line of the result log.
type logRecord struct {
	Host     hostStamp `json:"host"`
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	At       string    `json:"at"`
	Result   *result   `json:"result"`
}

func appendLog(path string, rec logRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLog(path string) ([]logRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []logRecord
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var r logRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareLogs prints, per workload and metric, the median of an old and a
// new result log. It refuses logs whose records come from different hosts.
func compareLogs(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.jsonl NEW.jsonl")
	}
	old, err := readLog(args[0])
	if err != nil {
		return err
	}
	cur, err := readLog(args[1])
	if err != nil {
		return err
	}
	if len(old) == 0 || len(cur) == 0 {
		return fmt.Errorf("empty result log")
	}
	ref := old[0].Host
	for _, r := range append(old[1:len(old):len(old)], cur...) {
		if !r.Host.sameHost(ref) {
			return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", ref, r.Host)
		}
	}
	type key struct{ workload, metric string }
	collect := func(recs []logRecord) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			if r.Trace || r.Result == nil || !r.Result.Correct {
				continue
			}
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	a, b := collect(old), collect(cur)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		fmt.Fprintf(w, "%-18s %-20s old %12.6g (n=%d)  new %12.6g (n=%d)  %+7.2f%%\n",
			k.workload, k.metric, ma, len(a[k]), mb, len(b[k]), 100*(mb-ma)/ma)
	}
	return nil
}
