package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance identifies the code measured: the git commit and whether the
// tree was dirty when the run is made in a git checkout, and always a hash of
// the Go sources, so runs from exported trees stay comparable.
func provenance() map[string]any {
	p := map[string]any{"source_sha256": sourceHash(".")}
	// Only ask git about this directory's own repository: without a .git
	// here, git would search the parent directories.
	if _, err := os.Stat(".git"); err != nil {
		p["commit"] = "unknown (not a git checkout)"
		return p
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p["commit"] = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		p["dirty"] = len(strings.TrimSpace(string(out))) > 0
	}
	return p
}

// sourceHash hashes every .go, go.mod and testdata file under root (paths
// and contents, in walk order), skipping hidden and build directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" &&
			!strings.Contains(filepath.ToSlash(path), "/testdata/") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint describes the machine and runtime the numbers came from.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
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
