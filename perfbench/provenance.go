package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance identifies the machine, toolchain, code and inputs of a run.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// checkout carries VCS metadata; SourceSHA256 identifies the program's
	// sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	PoolSize     int    `json:"pool_size"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func newProvenance(cfg config, poolSize int) provenance {
	return provenance{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(),
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		PoolSize:     poolSize,
		Seconds:      int(cfg.seconds),
		Trace:        cfg.trace,
	}
}

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

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return "unknown"
	}
	if modified == "true" {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes go.mod and every Go file under internal/ and
// perfbench/ (path and content, in path order): the program the benchmark
// measures, identified without VCS metadata.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"internal", "perfbench"} {
		// An unreadable entry is left out of the digest, not fatal: the
		// digest identifies the sources, it does not check them.
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
