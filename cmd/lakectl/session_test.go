package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.transcript from the session scripts instead of comparing with them")

// TestSessionTranscripts replays every committed lakectl session script
// (testdata/<name>.lake) and compares what the shell printed with
// testdata/<name>.transcript. Each script runs twice in this process
// first and the two transcripts must be byte-identical, so a map-order
// or wall-clock draw fails where it is made rather than as a golden
// diff.
// With -update the transcripts are rewritten instead.
func TestSessionTranscripts(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("testdata", "*.lake"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no session scripts under testdata/ (%v)", err)
	}
	for _, script := range scripts {
		name := strings.TrimSuffix(filepath.Base(script), ".lake")
		t.Run(name, func(t *testing.T) {
			a, b := runSession(t, script), runSession(t, script)
			if d := firstDiff(a, b); d != "" {
				t.Fatalf("two runs of %s print different transcripts: %s", script, d)
			}
			golden := strings.TrimSuffix(script, ".lake") + ".transcript"
			if *update {
				if err := os.WriteFile(golden, a, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (go test -run %s -update writes it)", err, t.Name())
			}
			if d := firstDiff(a, want); d != "" {
				t.Fatalf("transcript differs from %s: %s", golden, d)
			}
		})
	}
}

// runSession opens a shell with the flags on the script's first line
// ("# lakectl <flags>") and feeds it every other line the way the
// interactive loop does. The transcript echoes each command after the
// prompt and keeps the script's comment lines, so it reads on its own.
func runSession(t *testing.T, script string) []byte {
	t.Helper()
	text, err := os.ReadFile(script)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	header, ok := strings.CutPrefix(lines[0], "# lakectl")
	if !ok {
		t.Fatalf("%s: first line %q is not \"# lakectl <flags>\"", script, lines[0])
	}
	var out bytes.Buffer
	s, _, err := open(strings.Fields(header), &out)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, lines[0])
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			out.WriteString("\n")
		case strings.HasPrefix(line, "#"):
			fmt.Fprintln(&out, line)
		default:
			fmt.Fprintf(&out, "lake> %s\n", line)
			if err := s.exec(line); err != nil {
				fmt.Fprintln(&out, "error:", err)
			}
		}
	}
	return out.Bytes()
}

// firstDiff describes the first line where got and want differ, or
// returns "" when they are byte-identical.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) {
			return fmt.Sprintf("%d lines against %d", len(g), len(w))
		}
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
}
