package chaos

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the rows of "+digestFile+" this run produced")

// digestFile holds one "name digest" row per configuration the chaos
// tests run, so a change that moves any run's observable outcome shows
// up as a reviewable diff here, not only as a replay mismatch.
const digestFile = "testdata/digests.txt"

// digestRows is digestFile's table, read once by TestMain; parallel
// tests share it under digestMu.
var (
	digestRows = map[string]string{}
	digestMu   sync.Mutex
)

// checkDigest compares rep's digest with the row for name. A test calls
// it once per configuration it runs, after the run, so the table costs
// no extra run; rows a -short pass does not run are not checked. With
// -update the row is recorded instead, and TestMain writes the table.
func checkDigest(t *testing.T, name string, rep Report) {
	t.Helper()
	digestMu.Lock()
	defer digestMu.Unlock()
	got := fmt.Sprintf("%016x", rep.Digest)
	if *update {
		digestRows[name] = got
		return
	}
	want, ok := digestRows[name]
	if !ok {
		t.Fatalf("%s has no row %q (go test -run %s -update adds it)", digestFile, name, t.Name())
	}
	if got != want {
		t.Errorf("%s: digest %s, %s has %s", name, got, digestFile, want)
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	text, err := os.ReadFile(digestFile)
	if err != nil && !(*update && os.IsNotExist(err)) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if name, d, ok := strings.Cut(line, " "); ok {
			digestRows[name] = d
		}
	}
	code := m.Run()
	if *update && code == 0 {
		names := make([]string, 0, len(digestRows))
		for name := range digestRows {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, digestRows[name])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
