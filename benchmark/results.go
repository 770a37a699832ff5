package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultSet is what a directory of results holds: where and how the
// runs were made, and every run's result line.
type resultSet struct {
	Meta setMeta     `json:"meta"`
	Runs []runRecord `json:"runs"`
}

type setMeta struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Commit    string  `json:"commit"`
	Date      string  `json:"date"`
	Seconds   float64 `json:"seconds"`
	Smoke     bool    `json:"smoke"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

const (
	endToEndFile = "e2e.json"
	layersFile   = "layers.json"
	spansFile    = "spans.jsonl"
)

// gitCommit names the checkout's commit, or "unknown" outside git.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+uncommitted"
	}
	return commit
}

// runAll is the one command: every workload, runs untraced runs each on
// consecutive seeds plus one traced run, each in a process of its own so
// no run inherits another's heap. Every metric is printed by name and
// unit by the child; with out set, the result lines are written there.
func runAll(seed uint64, seconds float64, smoke bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		// Traced children append to the span file; start it empty.
		if err := os.WriteFile(filepath.Join(out, spansFile), nil, 0o644); err != nil {
			return err
		}
	}
	meta := setMeta{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: gitCommit(), Date: time.Now().UTC().Format(time.RFC3339), Seconds: seconds, Smoke: smoke,
	}
	e2e, layers := resultSet{Meta: meta}, resultSet{Meta: meta}
	failed := false
	child := func(w string, s uint64, trace int) (runRecord, error) {
		args := []string{"-workload", w, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if smoke {
			args = append(args, "-smoke")
		}
		if trace == 1 && out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		os.Stdout.Write(stdout.Bytes())
		// The line before the contract's result line is the run's record.
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var rec runRecord
		if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &rec) != nil || rec.Workload != w {
			return rec, fmt.Errorf("%s seed %d trace %d: no record line (%v)", w, s, trace, runErr)
		}
		if runErr != nil || !rec.Correct {
			failed = true
		}
		return rec, nil
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			rec, err := child(w.Name, seed+uint64(i), 0)
			if err != nil {
				return err
			}
			e2e.Runs = append(e2e.Runs, rec)
		}
		rec, err := child(w.Name, seed, 1)
		if err != nil {
			return err
		}
		layers.Runs = append(layers.Runs, rec)
	}
	if out != "" {
		if err := writeJSON(filepath.Join(out, endToEndFile), e2e); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(out, layersFile), layers); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run failed its correctness or determinism gate")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(dir string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(filepath.Join(dir, endToEndFile))
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}
